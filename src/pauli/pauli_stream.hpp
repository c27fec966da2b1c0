#pragma once
// Chunked Pauli-set ingestion for the memory-budgeted streaming pipeline.
//
// The budgeted driver never holds the whole encoded Pauli set resident:
// the set is spilled once to a .pset file and read back in contiguous
// chunks of strings. A .pset file is a base block — the
// PauliSet::save_binary bytes: magic, qubit count, string count, then one
// record per string (both planes trimmed to ceil(q / 8) bytes, then the
// coefficient; pauli_set.hpp) — closed by a checksum trailer. Records are
// fixed-width, so a ChunkedPauliReader reloads any chunk with one
// positional read per segment it spans, widening the trimmed planes into
// PackedPauliSet words (load_chunk_packed, the conflict hot path) or into a
// PauliSet with its coefficients (load_chunk).
//
// Incremental sessions grow a spill in place: append_pauli_set writes a
// self-describing *append segment* at EOF (magic, count, records, trailer)
// instead of rewriting the whole file. A reader opened on an appended file
// walks the segment chain and validates every segment against the actual
// file layout — it must NOT trust the base header's string count, because
// appended bytes make it a lie. Chunk ranges span segment boundaries
// transparently. A reader already open picks up new segments with
// refresh(), which repeats the constructor's scan in place — one sequential
// pass of 64 KiB block reads that parses every header and trailer and
// hashes every block from the same bytes — and reports how many leading
// strings kept their bytes, so a chunk cache keeps every chunk before them
// and extends the one they end in with the appended records alone
// (PackedPauliChunkCache::sync).
//
// Checksum trailers: the base block and every append segment end in
// [PSETSUM2][u64 util::WordHasher digest of the bytes they cover]; a block
// without one is a torn write. Every trailer is verified on every open and
// refresh. Writers hash every byte they write through one tee, so a trailer
// covers exactly the bytes on disk. Counts read from the file are bounded
// by the bytes that remain before they are multiplied into offsets.
//
// PackedPauliChunkCache keeps recently used chunks resident as packed
// records as long as the MemoryRegistry budget admits them and evicts
// least-recently-used chunks when it does not — the evicted chunk is simply
// re-read from disk on its next use (multi-pass re-scan).
//
// PackedRecordProber answers conflict edges straight from packed records,
// whether they sit in a resident PackedView or in a spill behind the cache:
// the incremental store probes through it, and the chunked fused engine's
// candidate tester is a thin adapter over it. The two sources differ only
// in where a record is read from.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "util/memory.hpp"

namespace picasso::pauli {

/// Writes `set` to `path`: its save_binary bytes, then a checksum trailer.
/// Returns the bytes of the base block (the file less its trailer). Throws
/// std::runtime_error on I/O failure.
std::size_t spill_pauli_set(const PauliSet& set, const std::string& path);

/// Appends `delta`'s records to an existing .pset spill at `path` as one
/// chained append segment (magic, count, records, PSETSUM2 trailer) without
/// rewriting the base file — how budgeted incremental sessions grow their
/// spill across updates. The base header is validated (magic + qubit count;
/// an empty delta is a no-op). Returns the new total file size in bytes.
/// Readers already open on `path` keep their old view until
/// ChunkedPauliReader::refresh().
std::size_t append_pauli_set(const PauliSet& delta, const std::string& path);

/// Random-access chunk reader over a .pset file. Chunk i covers strings
/// [i * strings_per_chunk, min(n, (i+1) * strings_per_chunk)).
class ChunkedPauliReader {
 public:
  /// Opens `path` and walks its append-segment chain, re-deriving the true
  /// string count and per-segment section offsets from the file layout.
  /// `max_strings` > 0 clamps the reader to the first `max_strings` strings
  /// (the incremental engine's escalation re-solves exactly its ingested
  /// prefix of a still-growing spill). Throws std::invalid_argument when
  /// strings_per_chunk == 0 (chunk indexing divides by it) and
  /// std::runtime_error on unreadable, structurally inconsistent or
  /// checksum-failing files.
  ChunkedPauliReader(std::string path, std::size_t strings_per_chunk,
                     std::size_t max_strings = 0);

  /// Re-reads the file in place after appends: the constructor's segment
  /// walk and verification of every checksum trailer, then adopts the new
  /// view. Returns how many leading strings kept their place and bytes (the
  /// old num_strings() when appends only added strings); a chunk cache over
  /// this reader keeps the chunks below that count and extends the one it
  /// ends in (PackedPauliChunkCache::sync). Loads of the chunks from that
  /// one on count as cold reads again, so re_reads() still counts only
  /// budget-forced re-scans. Throws like the constructor and then keeps the
  /// previous view.
  std::size_t refresh();

  const std::string& path() const noexcept { return path_; }
  std::size_t num_strings() const noexcept { return num_strings_; }
  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t strings_per_chunk() const noexcept { return strings_per_chunk_; }
  std::size_t num_chunks() const noexcept {
    return (num_strings_ + strings_per_chunk_ - 1) / strings_per_chunk_;
  }

  std::size_t chunk_begin(std::size_t chunk) const noexcept {
    return chunk * strings_per_chunk_;
  }
  std::size_t chunk_size(std::size_t chunk) const noexcept {
    const std::size_t begin = chunk_begin(chunk);
    const std::size_t end =
        std::min(num_strings_, begin + strings_per_chunk_);
    return end > begin ? end - begin : 0;
  }

  /// Bytes chunk `chunk` occupies as a PackedPauliSet (records only) —
  /// what PackedPauliChunkCache charges.
  std::size_t chunk_packed_resident_bytes(std::size_t chunk) const noexcept;

  /// Strings [begin, begin + count) with their coefficients as a
  /// standalone PauliSet (local indices [0, count)), not counted as a chunk
  /// load. Throws std::runtime_error on I/O failure and, like
  /// PauliSet::load_binary, on a set padding bit.
  PauliSet load_strings(std::size_t begin, std::size_t count) const;

  /// Chunk `chunk` as a standalone PauliSet: load_strings over its range,
  /// counted as a chunk load.
  PauliSet load_chunk(std::size_t chunk) const;

  /// Reloads chunk `chunk` in packed form, without its coefficients.
  PackedPauliSet load_chunk_packed(std::size_t chunk) const;

  /// Appends to `set`, which holds the first set.size() records of chunk
  /// `chunk` (fewer than chunk_size(chunk)), the chunk's remaining records:
  /// how a cache grows a chunk that appends extended, reading only the new
  /// records. Counts their bytes as read, not as a chunk load.
  void extend_chunk_packed(std::size_t chunk, PackedPauliSet& set) const;

  /// Total chunk loads performed through this reader (telemetry: every
  /// load beyond the first per chunk is a budget-forced re-scan).
  std::uint64_t chunk_loads() const noexcept { return chunk_loads_; }

  /// Loads beyond the first per chunk — the budget-forced re-scans, broken
  /// out of chunk_loads() (which also counts each chunk's cold read).
  std::uint64_t re_reads() const noexcept { return re_reads_; }

 private:
  /// One contiguous run of strings in the file: the base save_binary block
  /// or one append segment; `offset` is the absolute file position of its
  /// first record.
  struct Segment {
    std::size_t begin = 0;  // global id of the segment's first string
    std::size_t count = 0;
    std::uint64_t offset = 0;
    std::uint64_t checksum = 0;  // of the trailer that closes it
    bool operator==(const Segment&) const = default;
  };

  /// The file's structure as one verified walk found it.
  struct Layout {
    std::size_t num_strings = 0;  // after the max_strings clamp
    std::size_t num_qubits = 0;
    std::vector<Segment> segments;
  };

  /// Walks path_ and verifies every checksum trailer in one sequential pass
  /// of block reads (the constructor's and refresh()'s shared routine);
  /// throws on any inconsistency, a checksum mismatch only once the whole
  /// chain has walked well formed.
  Layout scan() const;
  void adopt(Layout layout);

  /// Telemetry for one completed chunk read of `bytes` payload bytes:
  /// counts the load, classifies it as cold read vs re-read, and feeds the
  /// global work counters.
  void note_load(std::size_t chunk, std::size_t bytes) const;

  /// Decodes the records of strings [begin, begin + count) into `planes`
  /// and, unless null, `coefs`, crossing segment boundaries, a block of
  /// records per positional read; returns the bytes read.
  std::size_t read_records(std::size_t begin, std::size_t count,
                           std::uint64_t* planes, double* coefs) const;

  std::string path_;
  std::size_t strings_per_chunk_ = 0;
  std::size_t max_strings_ = 0;
  std::size_t num_strings_ = 0;
  std::size_t num_qubits_ = 0;
  std::size_t words2_ = 0;
  std::vector<Segment> segments_;
  mutable std::uint64_t chunk_loads_ = 0;
  mutable std::uint64_t re_reads_ = 0;
  mutable std::vector<bool> loaded_;  // per chunk: read at least once
};

/// LRU cache of resident packed chunks, admission-controlled by the
/// registry budget (MemSubsystem::ChunkCache). get() returns a shared_ptr so
/// a caller-pinned chunk survives eviction (the cache merely drops its own
/// reference; the charge is released when the last owner lets go). When
/// even an empty cache cannot admit one chunk — budget smaller than one
/// chunk — the chunk is loaded and charged anyway (recorded as an
/// over-budget event) so the pipeline degrades to pure re-scan instead of
/// failing.
class PackedPauliChunkCache {
 public:
  explicit PackedPauliChunkCache(
      const ChunkedPauliReader& reader,
      util::MemoryRegistry& registry = util::global_memory())
      : reader_(&reader), registry_(&registry) {}

  std::shared_ptr<const PackedPauliSet> get(std::size_t chunk);

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  /// Drops every cached chunk (charges release as references expire).
  void clear() { entries_.clear(); }

  /// Brings the cache to the view the reader adopted in a refresh() that
  /// reported `unchanged` leading strings kept: chunks below them stay, the
  /// chunk they end in stays when it holds exactly those strings, and every
  /// other chunk leaves (not counted as evictions: the budget did not force
  /// them out). The next get() of that kept, grown chunk is a miss that
  /// reads only its appended records and extends it in place — charged for
  /// the growth alone — unless a caller pins it or the budget refuses the
  /// growth; then it is reloaded whole.
  void sync(std::size_t unchanged);

 private:
  /// A cached chunk and its registry charge, released when the last
  /// reference (the cache's or a caller's pin) goes away.
  struct Charged {
    Charged(PackedPauliSet records, std::size_t charged,
            util::MemoryRegistry& owner)
        : set(std::move(records)), bytes(charged), registry(&owner) {}
    Charged(const Charged&) = delete;
    Charged& operator=(const Charged&) = delete;
    ~Charged();

    PackedPauliSet set;
    std::size_t bytes;
    util::MemoryRegistry* registry;
  };
  struct Entry {
    std::size_t chunk = 0;
    std::shared_ptr<Charged> owner;
    std::uint64_t last_use = 0;
  };

  const ChunkedPauliReader* reader_;
  util::MemoryRegistry* registry_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Conflict prober over one source of packed [x|z] records: a resident
/// PackedView, read as one chunk that spans the set, or a spill read through
/// a ChunkedPauliReader and its PackedPauliChunkCache. It answers the
/// complement relation the fused engines color (edge ⇔ the two strings do
/// NOT anticommute; never a self-edge) through the runtime-dispatched block
/// kernel, against u's record swapped once per set_u(). Both sources give
/// the same answers. A batch costs one kernel call and one EdgeBlockCalls
/// count per distinct chunk it touches, chunks in ascending order, so cache
/// traffic and counters are a pure function of the calls; a batch whose
/// ids do not ascend is grouped by chunk in one pass first. Pins: u's chunk,
/// plus the one chunk read last, which later reads of that chunk use
/// without asking the cache again; both drop before set_u()'s lookup, so
/// that lookup is admitted against what the cache alone holds.
class PackedRecordProber {
 public:
  explicit PackedRecordProber(PackedView view);
  PackedRecordProber(const ChunkedPauliReader& reader,
                     PackedPauliChunkCache& cache);

  /// Pins global record `u` for the edges() calls that follow and returns
  /// it; valid until the next set_u() or record() call.
  const std::uint64_t* set_u(std::uint32_t u);

  /// out[k] = conflict-edge(u, ids[k]) for k in [0, count). Ids are global
  /// and may come in any order.
  void edges(const std::uint32_t* ids, std::size_t count, std::uint8_t* out);

  /// Global record `id` (signature rebuilds); valid until the next call.
  const std::uint64_t* record(std::uint32_t id);

  /// Capacity of the prober's scratch, in bytes.
  std::size_t scratch_bytes() const noexcept;

 private:
  /// Records of `chunk`: the view, u's pinned chunk, the chunk pinned
  /// last, or a fresh pin (the only case that asks the cache).
  const std::uint64_t* chunk_records(std::size_t chunk);
  /// edges() over `ids` that ascend or lie in one chunk: one kernel_chunk()
  /// per run of one chunk.
  void probe_runs(const std::uint32_t* ids, std::size_t count,
                  std::uint8_t* out);
  /// Groups an unsorted batch spanning chunks [first, last] in one pass:
  /// group_ids_ holds the chunk-local ids chunk by chunk, group_pos_ their
  /// batch positions, group_end_[k] the end of chunk first + k's group.
  void group_by_chunk(const std::uint32_t* ids, std::size_t count,
                      std::size_t first, std::size_t last);
  /// Raw kernel answers (nonzero: anticommutes) of u against the
  /// chunk-local `local` ids of `chunk`: one lookup, one kernel call.
  void kernel_chunk(std::size_t chunk, const std::uint32_t* local,
                    std::size_t count, std::uint8_t* out);
  /// id / spc_ as one multiply-high by chunk_magic_ (Lemire, Kaser and
  /// Kurz, "Faster remainder by direct computation", 2019), exact for every
  /// 32-bit id: every chunk lookup of the prober goes through it.
  std::size_t chunk_of(std::uint32_t id) const noexcept;

  PackedView view_;                         // resident source
  PackedPauliChunkCache* cache_ = nullptr;  // spilled source
  std::size_t spc_;                         // strings per chunk
  std::size_t words_;                       // per plane
  obs::Counter block_counter_;
  AnticommuteBlockFn kernel_;
  std::uint32_t u_ = 0;
  static constexpr std::size_t kNoChunk = ~std::size_t{0};
  std::size_t u_chunk_ = kNoChunk;
  std::shared_ptr<const PackedPauliSet> u_pin_;
  std::size_t pin_chunk_ = kNoChunk;  // the chunk pin_ holds
  std::shared_ptr<const PackedPauliSet> pin_;
  std::vector<std::uint64_t> swapped_;  // u's record as [z|x]
  std::vector<std::uint32_t> rel_;      // chunk-local ids
  std::uint64_t chunk_magic_ = 0;       // ceil(2^64 / spc_); 0: spc_ == 1
  // An unsorted batch that spans chunks, grouped by chunk (group_by_chunk)
  // with each id's batch position, and the kernel's answers.
  std::vector<std::uint32_t> group_ids_;
  std::vector<std::uint32_t> group_pos_;
  std::vector<std::size_t> group_end_;
  std::vector<std::uint8_t> group_out_;
};

}  // namespace picasso::pauli
