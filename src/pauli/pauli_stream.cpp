#include "pauli/pauli_stream.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <system_error>

#include "pauli/encoding.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"
#include "util/word_hash.hpp"

namespace picasso::pauli {

namespace {

constexpr std::uint64_t kMagic = 0x5041554c49534554ULL;       // "PAULISET"
constexpr std::uint64_t kAppendMagic = 0x5041554c49415050ULL;  // "PAULIAPP"
// Checksum trailer appended after the base block and after every append
// segment: [magic][u64 checksum of the covered bytes]. PSETSUM2 trailers
// carry a util::WordHasher digest and are the only kind written; PSETSUM1
// trailers (byte-wise FNV-1a) come from earlier builds and are still
// verified. Legacy files without trailers parse exactly as before; a
// trailer whose checksum does not match the bytes it covers is a torn or
// corrupt write, detected on open or refresh before any chunk is served.
constexpr std::uint64_t kTrailerMagicFnv = 0x5053455453554d31ULL;  // "PSETSUM1"
constexpr std::uint64_t kTrailerMagic = 0x5053455453554d32ULL;     // "PSETSUM2"
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint64_t);
constexpr std::size_t kSegmentHeaderBytes = 2 * sizeof(std::uint64_t);
constexpr std::size_t kTrailerBytes = 2 * sizeof(std::uint64_t);

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("pauli_stream: truncated .pset header");
  return value;
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Read-only POSIX descriptor for the segment walk and the trailer pass:
/// positional reads need no seek and fill no stream buffer, so a 16-byte
/// segment header costs 16 bytes. (No mmap: a file truncated under a mapping
/// raises SIGBUS where a short read raises an error.)
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadOnlyFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  bool is_open() const noexcept { return fd_ >= 0; }

  /// Size in bytes, or nullopt when fstat fails.
  std::optional<std::uint64_t> size() const noexcept {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) return std::nullopt;
    return static_cast<std::uint64_t>(st.st_size);
  }

  /// Reads up to `n` bytes at `offset` into `dest`; returns the bytes read,
  /// fewer than `n` only at end of file or on an I/O error.
  std::size_t read_at(void* dest, std::size_t n,
                      std::uint64_t offset) const noexcept {
    auto* p = static_cast<char*>(dest);
    std::size_t done = 0;
    while (done < n) {
      const ssize_t got = ::pread(fd_, p + done, n - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      done += static_cast<std::size_t>(got);
    }
    return done;
  }

 private:
  int fd_;
};

/// End of `count` records of `stride` bytes starting at `start`, or
/// nullopt when they would run past `limit` — checked before multiplying,
/// so a corrupt count cannot wrap the offset.
std::optional<std::uint64_t> records_end(std::uint64_t start,
                                         std::uint64_t count,
                                         std::uint64_t stride,
                                         std::uint64_t limit) {
  if (start > limit) return std::nullopt;
  if (stride == 0) return start;
  if (count > (limit - start) / stride) return std::nullopt;
  return start + count * stride;
}

/// Maps a failed stream write to a structured error: real ENOSPC surfaces
/// as std::system_error(ENOSPC) so callers can fall back in memory instead
/// of treating a full disk like an internal bug.
[[noreturn]] void throw_write_failure(const std::string& what,
                                      const std::string& path) {
  if (errno == ENOSPC) {
    throw std::system_error(ENOSPC, std::generic_category(),
                            what + ": device full writing " + path);
  }
  throw std::runtime_error(what + ": write failed for " + path);
}

/// Output streambuf that forwards every byte to `sink` and folds it into
/// `hasher`, so a blob serialized through an std::ostream lands in the file
/// and in its checksum in one pass, with no in-memory copy.
class HashingTee : public std::streambuf {
 public:
  HashingTee(std::streambuf* sink, util::WordHasher& hasher)
      : sink_(sink), hasher_(&hasher) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hasher_->update(s, static_cast<std::size_t>(n));
    return sink_->sputn(s, n);
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    hasher_->update(&c, 1);
    return sink_->sputc(c);
  }

 private:
  std::streambuf* sink_;
  util::WordHasher* hasher_;
};

}  // namespace

std::size_t pset_record_bytes(std::size_t num_qubits) noexcept {
  return (words_per_string3(num_qubits) + 2 * packed_words(num_qubits)) *
             sizeof(std::uint64_t) +
         sizeof(double);
}

std::size_t spill_pauli_set(const PauliSet& set, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("spill_pauli_set: cannot open " + path);
  }
  errno = 0;
  // The base block goes to the file through a tee that hashes it on the
  // way, so the trailer covers exactly the bytes on disk and reopen can
  // verify without trusting anything but the file.
  util::WordHasher sum;
  HashingTee tee(out.rdbuf(), sum);
  std::ostream block(&tee);
  set.save_binary(block);
  // Packed-symplectic tail: every record [x|z] back to back. The records
  // are contiguous in the set, so this is one write — and the reader can
  // reload any chunk packed with a single seek instead of decoding the
  // 3-bit words.
  const PackedView view = set.packed_view();
  const std::size_t tail_bytes =
      view.size * view.record_words() * sizeof(std::uint64_t);
  // Failpoint "spill.write": error/enospc throw here, delay sleeps, short:N
  // truncates the tail and skips the trailer — the on-disk state a crash
  // mid-write would leave, which reopen must then detect.
  const std::size_t tail_written = PICASSO_FAILPOINT_CLAMP("spill.write",
                                                           tail_bytes);
  block.write(reinterpret_cast<const char*>(view.data),
              static_cast<std::streamsize>(tail_written));
  if (tail_written == tail_bytes) {
    write_pod(out, kTrailerMagic);
    write_pod(out, sum.digest());
  }
  out.flush();
  if (!block || !out) throw_write_failure("spill_pauli_set", path);
  const std::size_t total_bytes = set.binary_size() + tail_bytes;
  obs::count(obs::Counter::SpillBytesWritten, total_bytes);
  return total_bytes;
}

ChunkedPauliReader::ChunkedPauliReader(std::string path,
                                       std::size_t strings_per_chunk,
                                       std::size_t max_strings)
    : path_(std::move(path)),
      strings_per_chunk_(strings_per_chunk),
      max_strings_(max_strings) {
  if (strings_per_chunk_ == 0) {
    throw std::invalid_argument(
        "ChunkedPauliReader: strings_per_chunk must be positive (chunk "
        "indexing divides by it)");
  }
  adopt(scan());
}

ChunkedPauliReader::Layout ChunkedPauliReader::scan() const {
  const ReadOnlyFile file(path_);
  if (!file.is_open()) {
    throw std::runtime_error("ChunkedPauliReader: cannot open " + path_);
  }
  std::uint64_t header[3] = {};
  const std::size_t header_read = file.read_at(header, kHeaderBytes, 0);
  if (header_read >= sizeof(std::uint64_t) && header[0] != kMagic) {
    throw std::runtime_error("ChunkedPauliReader: bad magic in " + path_);
  }
  if (header_read != kHeaderBytes) {
    throw std::runtime_error("ChunkedPauliReader: truncated .pset header in " +
                             path_);
  }
  const std::uint64_t num_qubits = header[1];
  const std::uint64_t base_count = header[2];
  // Word counts round the qubit count up; a corrupt count near 2^64 would
  // wrap that rounding to a tiny record.
  if (num_qubits > std::numeric_limits<std::uint64_t>::max() - 64) {
    throw std::runtime_error("ChunkedPauliReader: bad qubit count in " +
                             path_);
  }
  Layout layout;
  layout.num_qubits = static_cast<std::size_t>(num_qubits);
  const std::uint64_t words3 = words_per_string3(layout.num_qubits);
  const std::uint64_t words2 = packed_words(layout.num_qubits);
  // Per-string bytes of the 3-bit + coefficient sections and of the packed
  // records; neither overflows once the qubit count is bounded.
  const std::uint64_t rec3 = words3 * sizeof(std::uint64_t) + sizeof(double);
  const std::uint64_t rec2 = 2 * words2 * sizeof(std::uint64_t);

  const std::optional<std::uint64_t> size = file.size();
  if (!size) {
    throw std::runtime_error("ChunkedPauliReader: cannot stat " + path_);
  }
  const std::uint64_t file_bytes = *size;

  // The base header's count describes the base block only; everything past
  // it must be re-derived from the file itself. The base block ends either
  // after its coefficients (legacy save_binary output) or after a full
  // packed-symplectic tail (spill_pauli_set output); whichever end position
  // lets a chain of well-formed append segments run exactly to EOF is the
  // truth. Trusting the cached header — or inferring the tail from file
  // size alone — misreads any file that has been appended to.
  const std::optional<std::uint64_t> coefs_end =
      records_end(kHeaderBytes, base_count, rec3, file_bytes);
  if (!coefs_end) {
    throw std::runtime_error("ChunkedPauliReader: header claims " +
                             std::to_string(base_count) +
                             " strings, more than the " +
                             std::to_string(file_bytes) + " bytes of " +
                             path_ + " hold");
  }
  const std::optional<std::uint64_t> tail_end =
      records_end(*coefs_end, base_count, rec2, file_bytes);

  Segment base;
  base.count = static_cast<std::size_t>(base_count);
  base.words3_offset = kHeaderBytes;
  base.coefs_offset =
      kHeaderBytes + base_count * words3 * sizeof(std::uint64_t);

  // A checksum trailer encountered while walking, with its kind and the
  // byte range it covers; verified after the walk that wins is known.
  struct TrailerSpan {
    std::uint64_t magic = 0, begin = 0, end = 0, sum = 0;
  };

  // Walks the append-segment chain from `start` to EOF, one 16-byte
  // positional read per segment header or trailer; returns false on any
  // structural mismatch (bad magic, section overrunning the file).
  // Checksum trailers may follow the base block and any segment; legacy
  // files simply have none. `out` starts with the base segment.
  const auto walk_segments = [&](std::uint64_t start,
                                 std::vector<Segment>& out,
                                 std::vector<TrailerSpan>& sums) {
    out.assign(1, base);
    sums.clear();
    std::uint64_t pos = start;
    std::uint64_t cover_begin = 0;  // a trailer at `start` covers the base
    std::uint64_t next_id = base_count;
    while (pos < file_bytes) {
      if (file_bytes - pos < kSegmentHeaderBytes) return false;
      std::uint64_t fields[2] = {};
      if (file.read_at(fields, sizeof(fields), pos) != sizeof(fields)) {
        return false;
      }
      const std::uint64_t magic = fields[0];
      if (magic == kTrailerMagic || magic == kTrailerMagicFnv) {
        sums.push_back({magic, cover_begin, pos, fields[1]});
        if (out.back().checksum == 0) out.back().checksum = fields[1];
        pos += kTrailerBytes;
        cover_begin = pos;
        continue;
      }
      if (magic != kAppendMagic) return false;
      const std::uint64_t count = fields[1];
      cover_begin = pos;  // a trailing checksum covers this whole segment
      Segment seg;
      seg.begin = static_cast<std::size_t>(next_id);
      seg.count = static_cast<std::size_t>(count);
      seg.words3_offset = pos + kSegmentHeaderBytes;
      const std::optional<std::uint64_t> end = records_end(
          seg.words3_offset, count, rec3 + rec2, file_bytes);
      if (!end) return false;
      seg.coefs_offset =
          seg.words3_offset + count * words3 * sizeof(std::uint64_t);
      seg.packed_offset = seg.coefs_offset + count * sizeof(double);
      out.push_back(seg);
      next_id += count;
      pos = *end;
    }
    return true;
  };

  std::vector<Segment>& segments = layout.segments;
  std::vector<TrailerSpan> trailers;
  if (tail_end && walk_segments(*tail_end, segments, trailers)) {
    segments.front().packed_offset = base_count > 0 ? *coefs_end : 0;
    layout.has_packed = true;
  } else if (walk_segments(*coefs_end, segments, trailers)) {
    layout.has_packed = base_count == 0;  // vacuously packed when empty
  } else {
    throw std::runtime_error(
        "ChunkedPauliReader: unrecognized trailing bytes in " + path_ +
        " (truncated append segment or corrupt packed tail)");
  }

  // Torn-write detection: every trailer the winning walk found must match
  // the bytes it covers, so no silently corrupted chunk is ever served to a
  // solve. The covered ranges ascend and only the 16-byte trailers lie
  // between them, so one sequential pass of block reads through one buffer
  // hashes them all; a block that runs past one range feeds the next.
  std::array<char, std::size_t{1} << 16> block;
  std::uint64_t block_begin = 0, block_end = 0;  // file bytes in `block`
  const std::uint64_t covered_end = trailers.empty() ? 0 : trailers.back().end;
  for (const TrailerSpan& t : trailers) {
    util::WordHasher words;
    std::uint64_t fnv = util::kFnvOffsetBasis;
    for (std::uint64_t pos = t.begin; pos < t.end;) {
      if (pos < block_begin || pos >= block_end) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(block.size(), covered_end - pos));
        block_begin = pos;
        block_end = pos + file.read_at(block.data(), want, pos);
        if (block_end == pos) {
          throw std::runtime_error(
              "pauli_stream: truncated while verifying checksum in " + path_);
        }
      }
      const char* bytes = block.data() + (pos - block_begin);
      const auto n = static_cast<std::size_t>(std::min(block_end, t.end) - pos);
      if (t.magic == kTrailerMagic) {
        words.update(bytes, n);
      } else {
        fnv = util::fnv1a_bytes(fnv, bytes, n);
      }
      pos += n;
    }
    if ((t.magic == kTrailerMagic ? words.digest() : fnv) != t.sum) {
      throw std::runtime_error(
          "ChunkedPauliReader: checksum mismatch in " + path_ +
          " (torn or corrupt spill segment)");
    }
  }

  const Segment& last = segments.back();
  layout.num_strings = last.begin + last.count;
  if (max_strings_ > 0) {
    layout.num_strings = std::min(layout.num_strings, max_strings_);
  }
  return layout;
}

void ChunkedPauliReader::adopt(Layout layout) {
  num_strings_ = layout.num_strings;
  num_qubits_ = layout.num_qubits;
  words3_ = words_per_string3(num_qubits_);
  words2_ = packed_words(num_qubits_);
  has_packed_ = layout.has_packed;  // append segments always carry packed
  segments_ = std::move(layout.segments);
}

std::size_t ChunkedPauliReader::refresh() {
  Layout next = scan();
  // The first string whose place or bytes in the file may have changed:
  // the start of the first segment that differs, else the old end (an
  // append leaves every old segment exactly as it was).
  std::size_t first = std::min(num_strings_, next.num_strings);
  if (next.num_qubits != num_qubits_ || next.has_packed != has_packed_) {
    first = 0;
  } else {
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      if (i >= next.segments.size() || segments_[i] != next.segments[i]) {
        first = std::min(first, segments_[i].begin);
        break;
      }
    }
  }
  const std::size_t first_chunk = first / strings_per_chunk_;
  adopt(std::move(next));
  loaded_.resize(num_chunks(), false);
  std::fill(loaded_.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(first_chunk, loaded_.size())),
            loaded_.end(), false);
  return first_chunk;
}

std::size_t ChunkedPauliReader::chunk_packed_resident_bytes(
    std::size_t chunk) const noexcept {
  return chunk_size(chunk) * 2 * words2_ * sizeof(std::uint64_t);
}

void ChunkedPauliReader::note_load(std::size_t chunk,
                                   std::size_t bytes) const {
  ++chunk_loads_;
  if (loaded_.size() < num_chunks()) loaded_.resize(num_chunks(), false);
  if (loaded_[chunk]) {
    ++re_reads_;
    obs::count(obs::Counter::ChunkReReads);
  } else {
    loaded_[chunk] = true;
  }
  obs::count(obs::Counter::SpillBytesRead, bytes);
}

void ChunkedPauliReader::read_span(std::istream& in, Section section,
                                   std::size_t begin, std::size_t count,
                                   char* dest) const {
  PICASSO_FAILPOINT("spill.read");
  std::size_t stride = 0;
  switch (section) {
    case Section::Words3: stride = words3_ * sizeof(std::uint64_t); break;
    case Section::Coefs: stride = sizeof(double); break;
    case Section::Packed: stride = 2 * words2_ * sizeof(std::uint64_t); break;
  }
  const std::size_t end = begin + count;
  for (const Segment& seg : segments_) {
    const std::size_t lo = std::max(begin, seg.begin);
    const std::size_t hi = std::min(end, seg.begin + seg.count);
    if (lo >= hi) continue;
    std::uint64_t offset = 0;
    switch (section) {
      case Section::Words3: offset = seg.words3_offset; break;
      case Section::Coefs: offset = seg.coefs_offset; break;
      case Section::Packed: offset = seg.packed_offset; break;
    }
    if (section == Section::Packed && offset == 0) {
      throw std::runtime_error(
          "ChunkedPauliReader: segment without packed records in " + path_);
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset + (lo - seg.begin) * stride));
    in.read(dest + (lo - begin) * stride,
            static_cast<std::streamsize>((hi - lo) * stride));
    if (!in) {
      throw std::runtime_error("ChunkedPauliReader: truncated chunk in " +
                               path_);
    }
  }
}

PauliSet ChunkedPauliReader::load_chunk(std::size_t chunk) const {
  const std::size_t begin = chunk_begin(chunk);
  const std::size_t count = chunk_size(chunk);
  if (count == 0) return PauliSet{};

  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ChunkedPauliReader: cannot reopen " + path_);
  }
  // The chunk's records in save_binary order: its 3-bit words, then its
  // coefficients.
  const std::size_t words_bytes = count * words3_ * sizeof(std::uint64_t);
  std::vector<std::uint8_t> records(words_bytes + count * sizeof(double));
  read_span(in, Section::Words3, begin, count,
            reinterpret_cast<char*>(records.data()));
  read_span(in, Section::Coefs, begin, count,
            reinterpret_cast<char*>(records.data() + words_bytes));
  PauliSet set = PauliSet::from_records(num_qubits_, count, records.data());
  note_load(chunk, records.size());
  return set;
}

PackedPauliSet ChunkedPauliReader::load_chunk_packed(std::size_t chunk) const {
  const std::size_t begin = chunk_begin(chunk);
  const std::size_t count = chunk_size(chunk);
  if (count == 0) return PackedPauliSet{};

  if (!has_packed_) {
    // Legacy spill without the packed tail: decode the 3-bit section.
    // load_chunk counts the load.
    return PackedPauliSet(load_chunk(chunk));
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ChunkedPauliReader: cannot reopen " + path_);
  }
  std::vector<std::uint64_t> words(count * 2 * words2_);
  read_span(in, Section::Packed, begin, count,
            reinterpret_cast<char*>(words.data()));
  note_load(chunk, words.size() * sizeof(std::uint64_t));
  return PackedPauliSet::from_raw(num_qubits_, count, std::move(words));
}

std::size_t append_pauli_set(const PauliSet& delta, const std::string& path) {
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("append_pauli_set: cannot open " + path);
    }
    if (read_pod<std::uint64_t>(in) != kMagic) {
      throw std::runtime_error("append_pauli_set: bad magic in " + path);
    }
    const auto base_qubits =
        static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    if (!delta.empty() && base_qubits != delta.num_qubits()) {
      throw std::invalid_argument("append_pauli_set: qubit count mismatch");
    }
  }
  std::error_code ec;
  if (delta.empty()) {
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) throw std::runtime_error("append_pauli_set: cannot stat " + path);
    return static_cast<std::size_t>(size);
  }

  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("append_pauli_set: cannot append to " + path);
  }
  errno = 0;
  // Same tee as spill_pauli_set: the trailer covers the segment's bytes.
  util::WordHasher sum;
  HashingTee tee(out.rdbuf(), sum);
  std::ostream segment(&tee);
  const std::size_t count = delta.size();
  write_pod(segment, kAppendMagic);
  write_pod(segment, static_cast<std::uint64_t>(count));
  delta.write_words3(segment);
  segment.write(reinterpret_cast<const char*>(delta.coefficients().data()),
                static_cast<std::streamsize>(count * sizeof(double)));
  const PackedView view = delta.packed_view();
  const std::size_t packed_bytes =
      view.size * view.record_words() * sizeof(std::uint64_t);
  // Failpoint "spill.append": same contract as "spill.write" — short:N
  // leaves a torn segment with no trailer for reopen to reject.
  const std::size_t packed_written = PICASSO_FAILPOINT_CLAMP("spill.append",
                                                             packed_bytes);
  segment.write(reinterpret_cast<const char*>(view.data),
                static_cast<std::streamsize>(packed_written));
  if (packed_written == packed_bytes) {
    write_pod(out, kTrailerMagic);
    write_pod(out, sum.digest());
  }
  out.flush();
  if (!segment || !out) throw_write_failure("append_pauli_set", path);
  const std::size_t segment_bytes =
      kSegmentHeaderBytes + count * pset_record_bytes(delta.num_qubits());
  obs::count(obs::Counter::SpillBytesWritten, segment_bytes);
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("append_pauli_set: cannot stat " + path);
  return static_cast<std::size_t>(size);
}

std::shared_ptr<const PackedPauliSet> PackedPauliChunkCache::get(
    std::size_t chunk) {
  ++clock_;
  for (Entry& e : entries_) {
    if (e.chunk == chunk) {
      e.last_use = clock_;
      ++hits_;
      obs::count(obs::Counter::ChunkCacheHits);
      return e.set;
    }
  }
  ++misses_;
  obs::count(obs::Counter::ChunkCacheMisses);

  // Miss: make room under the budget, oldest chunks first. try_charge is
  // the admission test; eviction only drops the cache's reference, so a
  // chunk pinned by the caller keeps its charge until the pin goes away.
  const std::size_t bytes = reader_->chunk_packed_resident_bytes(chunk);
  bool charged = registry_->try_charge(util::MemSubsystem::ChunkCache, bytes);
  while (!charged && !entries_.empty()) {
    auto oldest = std::min_element(entries_.begin(), entries_.end(),
                                   [](const Entry& a, const Entry& b) {
                                     return a.last_use < b.last_use;
                                   });
    entries_.erase(oldest);
    ++evictions_;
    obs::count(obs::Counter::ChunkCacheEvictions);
    charged = registry_->try_charge(util::MemSubsystem::ChunkCache, bytes);
  }
  if (!charged) {
    // Budget smaller than a single chunk (or everything else is pinned):
    // proceed anyway — the overage is recorded as an over-budget event —
    // rather than deadlocking the pipeline.
    registry_->charge(util::MemSubsystem::ChunkCache, bytes);
  }

  // Until the deleter below owns it, the charge is released by hand on a
  // throwing read (I/O error, truncated file), or it would outlive the
  // registry's every later admission.
  std::unique_ptr<PackedPauliSet> loaded;
  try {
    loaded =
        std::make_unique<PackedPauliSet>(reader_->load_chunk_packed(chunk));
  } catch (...) {
    registry_->release(util::MemSubsystem::ChunkCache, bytes);
    throw;
  }
  util::MemoryRegistry* registry = registry_;
  std::shared_ptr<const PackedPauliSet> set(
      loaded.release(), [registry, bytes](const PackedPauliSet* p) {
        registry->release(util::MemSubsystem::ChunkCache, bytes);
        delete p;
      });
  entries_.push_back({chunk, set, clock_});
  return set;
}

PackedRecordProber::PackedRecordProber(PackedView view)
    : view_(view),
      spc_(~std::size_t{0}),
      words_(view.words),
      block_counter_(best_simd_level() == SimdLevel::Avx2
                         ? obs::Counter::EdgeBlockCallsAvx2
                         : obs::Counter::EdgeBlockCallsScalar),
      kernel_(resolve_block_kernel(words_, best_simd_level())),
      swapped_(2 * words_) {}

PackedRecordProber::PackedRecordProber(const ChunkedPauliReader& reader,
                                       PackedPauliChunkCache& cache)
    : PackedRecordProber(PackedView{nullptr, reader.num_strings(),
                                    packed_words(reader.num_qubits())}) {
  cache_ = &cache;
  spc_ = reader.strings_per_chunk();
  // ceil(2^64 / spc_): exact for every 32-bit id once spc_ > 1 (a
  // one-string chunk is its id, and 2^64 does not fit).
  if (spc_ > 1 && spc_ <= std::numeric_limits<std::uint32_t>::max()) {
    chunk_magic_ = ~std::uint64_t{0} / spc_ + 1;
  }
}

const std::uint64_t* PackedRecordProber::chunk_records(std::size_t chunk) {
  if (cache_ == nullptr) return view_.data;
  if (chunk == u_chunk_) return u_pin_->view().data;
  // Drop the previous pin first: a chunk the cache has evicted stays
  // charged for as long as it is pinned.
  pin_.reset();
  pin_ = cache_->get(chunk);
  return pin_->view().data;
}

const std::uint64_t* PackedRecordProber::record(std::uint32_t id) {
  const std::size_t chunk = id / spc_;
  return chunk_records(chunk) + (id - chunk * spc_) * 2 * words_;
}

const std::uint64_t* PackedRecordProber::set_u(std::uint32_t u) {
  u_ = u;
  if (cache_ != nullptr) {
    pin_.reset();
    u_pin_.reset();
    u_chunk_ = kNoChunk;  // until the lookup below succeeds
    u_pin_ = cache_->get(u / spc_);
    u_chunk_ = u / spc_;
  }
  const std::uint64_t* rec = record(u);
  make_swapped_record(rec, words_, swapped_.data());
  return rec;
}

void PackedRecordProber::edges(const std::uint32_t* ids, std::size_t count,
                               std::uint8_t* out) {
  if (count == 0) return;
  const auto [lo, hi] = std::minmax_element(ids, ids + count);
  const std::size_t first = *lo / spc_;
  const std::size_t last = *hi / spc_;
  if (first == last || std::is_sorted(ids, ids + count)) {
    probe_runs(ids, count, out);
    return;
  }
  // An incremental first-fit round joins several buckets, so its ids need
  // not ascend: group them by chunk in one pass, probe each group, and
  // scatter the answers back in one more.
  group_by_chunk(ids, count, first, last);
  for (std::size_t k = 0, begin = 0; k < group_end_.size(); ++k) {
    const std::size_t end = group_end_[k];
    if (end > begin) {
      kernel_chunk(first + k, group_ids_.data() + begin, end - begin,
                   group_out_.data() + begin);
    }
    begin = end;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t pos = group_pos_[i];
    out[pos] = static_cast<std::uint8_t>(ids[pos] != u_ && group_out_[i] == 0);
  }
}

void PackedRecordProber::group_by_chunk(const std::uint32_t* ids,
                                        std::size_t count, std::size_t first,
                                        std::size_t last) {
  group_ids_.resize(count);
  group_pos_.resize(count);
  group_out_.resize(count);
  const std::uint64_t base = first * spc_;
  if (last == first + 1) {
    // Two chunks: the first fills from the front, the second from the back.
    const std::uint64_t split = base + spc_;
    std::size_t front = 0, back = count;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t id = ids[k];
      const bool low = id < split;
      const std::size_t at = low ? front++ : --back;
      group_ids_[at] = static_cast<std::uint32_t>(id - (low ? base : split));
      group_pos_[at] = static_cast<std::uint32_t>(k);
    }
    group_end_.assign({front, count});
    return;
  }
  // Counting sort by chunk: count, prefix-sum into starts, place. The
  // chunk of an id is one multiply-high, not a division.
  group_end_.assign(last - first + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    ++group_end_[chunk_of(ids[k]) - first];
  }
  std::size_t start = 0;
  for (std::size_t& slot : group_end_) {
    const std::size_t size = slot;
    slot = start;
    start += size;
  }
  // Placing advances each group's start to its end.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t chunk = chunk_of(ids[k]);
    const std::size_t at = group_end_[chunk - first]++;
    group_ids_[at] = static_cast<std::uint32_t>(ids[k] - chunk * spc_);
    group_pos_[at] = static_cast<std::uint32_t>(k);
  }
}

std::size_t PackedRecordProber::chunk_of(std::uint32_t id) const noexcept {
  if (chunk_magic_ == 0) return id / spc_;
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(chunk_magic_) * id) >> 64);
}

void PackedRecordProber::probe_runs(const std::uint32_t* ids,
                                    std::size_t count, std::uint8_t* out) {
  // Either every id lies in one chunk or the ids ascend; each chunk's ids
  // then form one run. A resident view is the one chunk [0, spc_).
  for (std::size_t i = 0; i < count;) {
    const std::size_t chunk = ids[i] / spc_;
    const std::size_t end = (chunk + 1) * spc_;
    std::size_t j = i + 1;
    while (j < count && ids[j] < end) ++j;
    // Chunk-local ids; chunk 0's are the global ids themselves.
    const std::uint32_t* local = ids + i;
    if (chunk != 0) {
      const auto base = static_cast<std::uint32_t>(chunk * spc_);
      rel_.resize(j - i);
      for (std::size_t k = i; k < j; ++k) rel_[k - i] = ids[k] - base;
      local = rel_.data();
    }
    kernel_chunk(chunk, local, j - i, out + i);
    for (std::size_t k = i; k < j; ++k) {
      out[k] = static_cast<std::uint8_t>(ids[k] != u_ && out[k] == 0);
    }
    i = j;
  }
}

void PackedRecordProber::kernel_chunk(std::size_t chunk,
                                      const std::uint32_t* local,
                                      std::size_t count, std::uint8_t* out) {
  const std::uint64_t* records = chunk_records(chunk);
  obs::count(block_counter_);
  kernel_(swapped_.data(), records, words_, local, count, out);
}

std::size_t PackedRecordProber::scratch_bytes() const noexcept {
  return swapped_.capacity() * sizeof(std::uint64_t) +
         (rel_.capacity() + group_ids_.capacity() + group_pos_.capacity()) *
             sizeof(std::uint32_t) +
         group_end_.capacity() * sizeof(std::size_t) + group_out_.capacity();
}

}  // namespace picasso::pauli
