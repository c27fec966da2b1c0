#pragma once
// Chunked Pauli-set ingestion for the memory-budgeted streaming pipeline.
//
// The budgeted driver never holds the whole encoded Pauli set resident:
// the set is spilled once to a .pset file and read back in contiguous
// chunks of strings. The spill format is the PauliSet::save_binary layout
// (fixed-width header, packed 3-bit words, coefficients) followed by a
// packed-symplectic tail: every string's [x|z] record
// (pauli_packed.hpp), 2 * packed_words(q) words each. Both sections are
// seekable, so a ChunkedPauliReader can reload a chunk either as a
// PauliSet decoded from the 3-bit section (load_chunk) or — the conflict
// hot path — as a straight read of the packed records into a
// PackedPauliSet (load_chunk_packed), with no decoding at all. Files written before the packed tail existed (or by
// PauliSet::save_binary directly) still load: the reader detects the tail
// by file size and otherwise reconstructs packed chunks from the 3-bit
// words.
//
// Incremental sessions grow a spill in place: append_pauli_set writes a
// self-describing *append segment* at EOF (magic, count, 3-bit words,
// coefficients, packed records) instead of rewriting the whole file. A
// reader opened on an appended file walks the segment chain and validates
// every section offset against the actual file layout — it must NOT trust
// the base header's string count or infer the packed tail from the file
// size alone, because appended bytes make both lies. Chunk ranges span
// segment boundaries transparently. A reader already open picks up new
// segments with refresh(), which repeats the walk (one small positional
// read per segment header) and the checksum verification (one sequential
// pass over the spill) in place and reports the first chunk that changed,
// so the chunk cache keeps every chunk before it.
//
// Checksum trailers: the base block and every append segment end in
// [magic][u64 checksum of the bytes they cover]. Writers emit PSETSUM2
// (util::WordHasher, word-wide); readers also verify the PSETSUM1 trailers
// (byte-wise FNV-1a) of spills written by earlier builds. Every trailer is
// verified on every open and refresh. Counts read from the file are bounded
// by the bytes that remain before they are multiplied into offsets.
//
// Writers build the 3-bit words from the set's planes (PauliSet keeps no
// other encoding) and hash every byte they write through one tee, so a
// trailer covers exactly the bytes on disk.
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

/// Bytes one string occupies in a .pset spill: its 3-bit words, its
/// coefficient and its packed [x|z] record. The one per-string figure every
/// spill chunk size is derived from (Session::plan, the budgeted fused
/// engine, incremental spill stores).
std::size_t pset_record_bytes(std::size_t num_qubits) noexcept;

/// Writes `set` to `path`: the .pset binary format (save_binary) plus the
/// packed-symplectic tail. Returns the file size in bytes. Throws
/// std::runtime_error on I/O failure.
std::size_t spill_pauli_set(const PauliSet& set, const std::string& path);

/// Appends `delta`'s records to an existing .pset spill at `path` as one
/// chained append segment (magic, count, 3-bit words, coefficients, packed
/// records, PSETSUM2 trailer) without rewriting the base file — how
/// budgeted incremental sessions grow their spill across updates. The base
/// header is validated (magic + qubit count; an empty delta is a no-op).
/// Returns the new total file size in bytes. Readers already open on `path`
/// keep their old view until ChunkedPauliReader::refresh().
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
  /// view. Returns the first chunk whose string range or bytes may differ
  /// from the previous view (the old num_chunks() when appends only added
  /// chunks); a chunk cache over this reader drops that chunk and the ones
  /// after it (PackedPauliChunkCache::drop_from) and keeps the rest, whose
  /// bytes were verified when they were read. Loads of chunks from the
  /// returned one on count as cold reads again, so re_reads() still counts
  /// only budget-forced re-scans. Throws like the constructor and then
  /// keeps the previous view.
  std::size_t refresh();

  const std::string& path() const noexcept { return path_; }
  std::size_t num_strings() const noexcept { return num_strings_; }
  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t strings_per_chunk() const noexcept { return strings_per_chunk_; }
  std::size_t num_chunks() const noexcept {
    return (num_strings_ + strings_per_chunk_ - 1) / strings_per_chunk_;
  }

  /// True when the spill file carries the packed-symplectic tail, i.e.
  /// load_chunk_packed can seek instead of re-encoding.
  bool has_packed_tail() const noexcept { return has_packed_; }

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

  /// Seeks to chunk `chunk` and decodes its 3-bit words and coefficients
  /// straight into a standalone PauliSet (local indices [0, chunk_size)).
  /// Throws on I/O failure and, like PauliSet::load_binary, on corrupt
  /// codes.
  PauliSet load_chunk(std::size_t chunk) const;

  /// Reloads chunk `chunk` in packed form: a straight seek+read of the
  /// packed tail when present, else a decode of the 3-bit section.
  PackedPauliSet load_chunk_packed(std::size_t chunk) const;

  /// Total chunk loads performed through this reader (telemetry: every
  /// load beyond the first per chunk is a budget-forced re-scan).
  std::uint64_t chunk_loads() const noexcept { return chunk_loads_; }

  /// Loads beyond the first per chunk — the budget-forced re-scans, broken
  /// out of chunk_loads() (which also counts each chunk's cold read).
  std::uint64_t re_reads() const noexcept { return re_reads_; }

 private:
  /// One contiguous run of strings in the file: the base save_binary block
  /// or one append segment. Section offsets are absolute file positions;
  /// packed_offset == 0 means the segment carries no packed records.
  struct Segment {
    std::size_t begin = 0;  // global id of the segment's first string
    std::size_t count = 0;
    std::uint64_t words3_offset = 0;
    std::uint64_t coefs_offset = 0;
    std::uint64_t packed_offset = 0;
    std::uint64_t checksum = 0;  // of the trailer right after it (0: none)
    bool operator==(const Segment&) const = default;
  };

  /// The file's structure as one verified walk found it.
  struct Layout {
    std::size_t num_strings = 0;  // after the max_strings clamp
    std::size_t num_qubits = 0;
    bool has_packed = false;
    std::vector<Segment> segments;
  };

  enum class Section { Words3, Coefs, Packed };

  /// Walks path_ and verifies every checksum trailer (the constructor's and
  /// refresh()'s shared routine); throws on any inconsistency.
  Layout scan() const;
  void adopt(Layout layout);

  /// Telemetry for one completed chunk read of `bytes` payload bytes:
  /// counts the load, classifies it as cold read vs re-read, and feeds the
  /// global work counters.
  void note_load(std::size_t chunk, std::size_t bytes) const;

  /// Reads `count` strings of one section starting at global string
  /// `begin` into `dest`, crossing segment boundaries as needed.
  void read_span(std::istream& in, Section section, std::size_t begin,
                 std::size_t count, char* dest) const;

  std::string path_;
  std::size_t strings_per_chunk_ = 0;
  std::size_t max_strings_ = 0;
  std::size_t num_strings_ = 0;
  std::size_t num_qubits_ = 0;
  std::size_t words3_ = 0;
  std::size_t words2_ = 0;
  bool has_packed_ = false;
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

  /// Drops chunk `first` and every later one — the chunks a
  /// ChunkedPauliReader::refresh() reported as changed. Earlier chunks stay
  /// cached. Not counted as evictions: the budget did not force them out.
  void drop_from(std::size_t first) {
    std::erase_if(entries_,
                  [first](const Entry& e) { return e.chunk >= first; });
  }

 private:
  struct Entry {
    std::size_t chunk = 0;
    std::shared_ptr<const PackedPauliSet> set;
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
/// plus the one chunk read last; both drop before set_u()'s lookup, so that
/// lookup is admitted against what the cache alone holds.
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
  /// Records of `chunk`: the view, u's pinned chunk, or a fresh pin.
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
  /// 32-bit id.
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
  std::shared_ptr<const PackedPauliSet> pin_;
  std::vector<std::uint64_t> swapped_;  // u's record as [z|x]
  std::vector<std::uint32_t> rel_;      // chunk-local ids
  std::uint64_t chunk_magic_ = 0;       // ceil(2^64 / spc_); 0: divide
  // An unsorted batch that spans chunks, grouped by chunk (group_by_chunk)
  // with each id's batch position, and the kernel's answers.
  std::vector<std::uint32_t> group_ids_;
  std::vector<std::uint32_t> group_pos_;
  std::vector<std::size_t> group_end_;
  std::vector<std::uint8_t> group_out_;
};

}  // namespace picasso::pauli
