#include "pauli/pauli_stream.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <system_error>

#include "util/failpoint.hpp"
#include "util/word_hash.hpp"

namespace picasso::pauli {

namespace {

constexpr std::uint64_t kMagic = PauliSet::kBinaryMagic;       // "PAULIXZ1"
constexpr std::uint64_t kAppendMagic = 0x5041554c49415050ULL;  // "PAULIAPP"
// Checksum trailer that closes the base block and every append segment:
// [PSETSUM2][u64 util::WordHasher digest of the block's bytes]. A block
// without one (a torn write) or a trailer whose checksum does not match the
// bytes it covers is detected on open or refresh before any chunk is
// served.
constexpr std::uint64_t kTrailerMagic = 0x5053455453554d32ULL;  // "PSETSUM2"
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint64_t);
constexpr std::size_t kSegmentHeaderBytes = 2 * sizeof(std::uint64_t);
constexpr std::size_t kTrailerBytes = 2 * sizeof(std::uint64_t);

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Read-only POSIX descriptor for the verifying scan and chunk reads:
/// positional reads need no seek and fill no stream buffer. (No mmap: a
/// file truncated under a mapping raises SIGBUS where a short read raises
/// an error.)
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

/// Reads [0, limit) of a file front to back through one 64 KiB buffer, one
/// positional read per block: take() hands the next bytes to a hasher, to a
/// caller's field, or to both, so a scan reads every byte of the file once.
class BlockStream {
 public:
  explicit BlockStream(const ReadOnlyFile& file) : file_(&file) {}

  /// Stops reads at byte `bytes` (until set: at end of file), bytes
  /// already buffered included.
  void limit(std::uint64_t bytes) noexcept {
    limit_ = bytes;
    end_ = std::min(end_, bytes);
  }
  std::uint64_t position() const noexcept { return pos_; }

  /// Moves the next `n` bytes into `hasher` and `dest`, either of which may
  /// be null; returns the bytes moved, fewer than `n` only at the limit, at
  /// end of file or on an I/O error.
  std::uint64_t take(std::uint64_t n, void* dest, util::WordHasher* hasher) {
    auto* out = static_cast<char*>(dest);
    std::uint64_t done = 0;
    while (done < n) {
      if (pos_ >= end_ && !refill()) break;
      const auto piece =
          static_cast<std::size_t>(std::min(n - done, end_ - pos_));
      const char* bytes = block_.data() + (pos_ - begin_);
      if (hasher != nullptr) hasher->update(bytes, piece);
      if (out != nullptr) std::memcpy(out + done, bytes, piece);
      pos_ += piece;
      done += piece;
    }
    return done;
  }

 private:
  bool refill() noexcept {
    if (pos_ >= limit_) return false;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_.size(), limit_ - pos_));
    begin_ = pos_;
    end_ = pos_ + file_->read_at(block_.data(), want, pos_);
    return end_ > pos_;
  }

  const ReadOnlyFile* file_;
  std::array<char, std::size_t{1} << 16> block_;
  std::uint64_t limit_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t begin_ = 0, end_ = 0;  // file bytes in block_
  std::uint64_t pos_ = 0;              // next byte to take
};

/// End of `count` records of `stride` bytes starting at `start`, or
/// nullopt when they would run past `limit` — checked before multiplying,
/// so a corrupt count cannot wrap the offset.
std::optional<std::uint64_t> records_end(std::uint64_t start,
                                         std::uint64_t count,
                                         std::uint64_t stride,
                                         std::uint64_t limit) {
  if (start > limit) return std::nullopt;
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

/// Output streambuf that forwards the first `limit` bytes written through
/// it to `sink` and folds them into `hasher`, so a block serialized through
/// an std::ostream lands in the file and in its checksum in one pass, with
/// no in-memory copy. Bytes past `limit` are dropped as if written: the
/// torn write a short-I/O failpoint asks for.
class HashingTee : public std::streambuf {
 public:
  HashingTee(std::streambuf* sink, util::WordHasher& hasher, std::size_t limit)
      : sink_(sink), hasher_(&hasher), left_(limit) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto keep = static_cast<std::streamsize>(
        std::min(left_, static_cast<std::size_t>(n)));
    left_ -= static_cast<std::size_t>(keep);
    hasher_->update(s, static_cast<std::size_t>(keep));
    return sink_->sputn(s, keep) == keep ? n : 0;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()) || left_ == 0) {
      return traits_type::not_eof(ch);
    }
    --left_;
    const char c = traits_type::to_char_type(ch);
    hasher_->update(&c, 1);
    return sink_->sputc(c);
  }

 private:
  std::streambuf* sink_;
  util::WordHasher* hasher_;
  std::size_t left_;
};

/// ceil(2^64 / spc) for PackedRecordProber::chunk_of, exact for every
/// 32-bit id once spc > 1 (a one-string chunk is its id, and 2^64 does not
/// fit: 0). From spc = 2^32 on the magic is at most 2^32, so every 32-bit id
/// maps to chunk 0, the resident view's one chunk.
std::uint64_t chunk_magic(std::size_t spc) noexcept {
  return spc > 1 ? ~std::uint64_t{0} / spc + 1 : 0;
}

}  // namespace

std::size_t spill_pauli_set(const PauliSet& set, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("spill_pauli_set: cannot open " + path);
  }
  errno = 0;
  // Failpoint "spill.write": error/enospc throw here, delay sleeps, short:N
  // keeps N bytes of the records and skips the trailer — the on-disk state
  // a crash mid-write would leave, which reopen must then detect.
  const std::size_t block_bytes = set.binary_size();
  const std::size_t records = block_bytes - kHeaderBytes;
  const std::size_t kept = PICASSO_FAILPOINT_CLAMP("spill.write", records);
  // The base block goes to the file through a tee that hashes it on the
  // way, so the trailer covers exactly the bytes on disk and reopen can
  // verify without trusting anything but the file.
  util::WordHasher sum;
  HashingTee tee(out.rdbuf(), sum, kHeaderBytes + kept);
  std::ostream block(&tee);
  set.save_binary(block);
  if (kept == records) {
    write_pod(out, kTrailerMagic);
    write_pod(out, sum.digest());
  }
  out.flush();
  if (!block || !out) throw_write_failure("spill_pauli_set", path);
  obs::count(obs::Counter::SpillBytesWritten, block_bytes);
  return block_bytes;
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
  // One sequential pass: header fields, records and trailers all come out
  // of the same block reads, and every block's bytes feed its checksum on
  // the way.
  BlockStream in(file);
  util::WordHasher words;  // of the block being read
  std::uint64_t header[3] = {};
  const std::size_t header_read =
      static_cast<std::size_t>(in.take(kHeaderBytes, header, &words));
  if (header_read >= sizeof(std::uint64_t) && header[0] != kMagic) {
    throw std::runtime_error(
        "ChunkedPauliReader: bad magic in " + path_ +
        " (not a PAULIXZ1 .pset; the 3-bit PAULISET layout is no longer "
        "read)");
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
  // Cannot overflow once the qubit count is bounded.
  const std::uint64_t record = pset_record_bytes(layout.num_qubits);

  const std::optional<std::uint64_t> size = file.size();
  if (!size) {
    throw std::runtime_error("ChunkedPauliReader: cannot stat " + path_);
  }
  const std::uint64_t file_bytes = *size;
  in.limit(file_bytes);

  // The base header's count describes the base block only; everything past
  // it must be re-derived from the file itself: a chain of well-formed
  // append segments and trailers that runs exactly to EOF. Trusting the
  // header misreads any file that has been appended to.
  const std::optional<std::uint64_t> base_end =
      records_end(kHeaderBytes, base_count, record, file_bytes);
  if (!base_end) {
    throw std::runtime_error("ChunkedPauliReader: header claims " +
                             std::to_string(base_count) +
                             " strings, more than the " +
                             std::to_string(file_bytes) + " bytes of " +
                             path_ + " hold");
  }

  // Every block ends in a trailer, then the file ends or an append segment
  // starts. A missing trailer also keeps a corrupt count from passing a
  // block's trailer off as records. Torn-write detection: every trailer
  // must match the bytes of its block (header included), so no silently
  // corrupted chunk is ever served to a solve. A mismatch is reported only
  // once the walk has found the whole chain well formed, so a file with a
  // structural fault fails on that fault first.
  std::vector<Segment>& segments = layout.segments;
  segments.push_back({0, static_cast<std::size_t>(base_count), kHeaderBytes, 0});
  std::uint64_t next_id = base_count;
  bool mismatch = false;
  for (std::uint64_t end = *base_end;;) {
    const std::uint64_t pos = in.position();
    if (in.take(end - pos, nullptr, &words) != end - pos) {
      throw std::runtime_error(
          "pauli_stream: truncated while verifying checksum in " + path_);
    }
    std::uint64_t trailer[2] = {};
    if (in.take(kTrailerBytes, trailer, nullptr) != kTrailerBytes ||
        trailer[0] != kTrailerMagic) {
      throw std::runtime_error(
          "ChunkedPauliReader: no checksum trailer at byte " +
          std::to_string(end) + " of " + path_ +
          " (torn write, or a corrupt count)");
    }
    segments.back().checksum = trailer[1];
    mismatch = mismatch || words.digest() != trailer[1];
    const std::uint64_t next = end + kTrailerBytes;
    if (next == file_bytes) break;
    words = util::WordHasher{};
    std::uint64_t fields[2] = {};
    std::optional<std::uint64_t> next_end;
    if (in.take(kSegmentHeaderBytes, fields, &words) == kSegmentHeaderBytes &&
        fields[0] == kAppendMagic) {
      next_end = records_end(next + kSegmentHeaderBytes, fields[1], record,
                             file_bytes);
    }
    if (!next_end) {
      throw std::runtime_error(
          "ChunkedPauliReader: unrecognized trailing bytes in " + path_ +
          " (truncated append segment or corrupt records)");
    }
    segments.push_back({static_cast<std::size_t>(next_id),
                        static_cast<std::size_t>(fields[1]),
                        next + kSegmentHeaderBytes, 0});
    next_id += fields[1];
    end = *next_end;
  }
  if (mismatch) {
    throw std::runtime_error(
        "ChunkedPauliReader: checksum mismatch in " + path_ +
        " (torn or corrupt spill segment)");
  }

  layout.num_strings = static_cast<std::size_t>(next_id);
  if (max_strings_ > 0) {
    layout.num_strings = std::min(layout.num_strings, max_strings_);
  }
  return layout;
}

void ChunkedPauliReader::adopt(Layout layout) {
  num_strings_ = layout.num_strings;
  num_qubits_ = layout.num_qubits;
  words2_ = packed_words(num_qubits_);
  segments_ = std::move(layout.segments);
}

std::size_t ChunkedPauliReader::refresh() {
  Layout next = scan();
  // Strings whose place and bytes in the file are unchanged: those before
  // the first segment that differs, at most the old count (an append
  // leaves every old segment exactly as it was).
  std::size_t unchanged = std::min(num_strings_, next.num_strings);
  if (next.num_qubits != num_qubits_) {
    unchanged = 0;
  } else {
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      if (i >= next.segments.size() || segments_[i] != next.segments[i]) {
        unchanged = std::min(unchanged, segments_[i].begin);
        break;
      }
    }
  }
  const std::size_t first_chunk = unchanged / strings_per_chunk_;
  adopt(std::move(next));
  loaded_.resize(num_chunks(), false);
  std::fill(loaded_.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(first_chunk, loaded_.size())),
            loaded_.end(), false);
  return unchanged;
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

std::size_t ChunkedPauliReader::read_records(std::size_t begin,
                                             std::size_t count,
                                             std::uint64_t* planes,
                                             double* coefs) const {
  PICASSO_FAILPOINT("spill.read");
  const ReadOnlyFile file(path_);
  if (!file.is_open()) {
    throw std::runtime_error("ChunkedPauliReader: cannot reopen " + path_);
  }
  const std::size_t record = pset_record_bytes(num_qubits_);
  const std::size_t words = 2 * words2_;
  constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  const std::size_t per_block = std::max<std::size_t>(1, kBlockBytes / record);
  std::vector<std::uint8_t> block(std::min(count, per_block) * record);
  const std::size_t end = begin + count;
  for (const Segment& seg : segments_) {
    const std::size_t hi = std::min(end, seg.begin + seg.count);
    for (std::size_t i = std::max(begin, seg.begin); i < hi;) {
      const std::size_t n = std::min(per_block, hi - i);
      const std::size_t bytes = n * record;
      if (file.read_at(block.data(), bytes,
                       seg.offset + (i - seg.begin) * record) != bytes) {
        throw std::runtime_error("ChunkedPauliReader: truncated chunk in " +
                                 path_);
      }
      try {
        decode_records(block.data(), n, num_qubits_,
                       planes + (i - begin) * words,
                       coefs == nullptr ? nullptr : coefs + (i - begin));
      } catch (const std::runtime_error& error) {
        throw std::runtime_error(std::string(error.what()) +
                                 " (counted from string " + std::to_string(i) +
                                 " of " + path_ + ")");
      }
      i += n;
    }
  }
  return count * record;
}

PauliSet ChunkedPauliReader::load_strings(std::size_t begin,
                                          std::size_t count) const {
  if (begin > num_strings_ || count > num_strings_ - begin) {
    throw std::out_of_range("ChunkedPauliReader::load_strings: strings past " +
                            std::to_string(num_strings_) + " in " + path_);
  }
  if (count == 0) return PauliSet{};
  std::vector<std::uint64_t> planes(count * 2 * words2_);
  std::vector<double> coefs(count);
  read_records(begin, count, planes.data(), coefs.data());
  return PauliSet(
      PackedPauliSet::from_raw(num_qubits_, count, std::move(planes)),
      std::move(coefs));
}

PauliSet ChunkedPauliReader::load_chunk(std::size_t chunk) const {
  const std::size_t count = chunk_size(chunk);
  if (count == 0) return PauliSet{};
  PauliSet set = load_strings(chunk_begin(chunk), count);
  note_load(chunk, count * pset_record_bytes(num_qubits_));
  return set;
}

PackedPauliSet ChunkedPauliReader::load_chunk_packed(std::size_t chunk) const {
  const std::size_t count = chunk_size(chunk);
  if (count == 0) return PackedPauliSet{};
  std::vector<std::uint64_t> words(count * 2 * words2_);
  note_load(chunk,
            read_records(chunk_begin(chunk), count, words.data(), nullptr));
  return PackedPauliSet::from_raw(num_qubits_, count, std::move(words));
}

void ChunkedPauliReader::extend_chunk_packed(std::size_t chunk,
                                             PackedPauliSet& set) const {
  const std::size_t have = set.size();
  const std::size_t size = chunk_size(chunk);
  if (have >= size) {
    throw std::invalid_argument(
        "ChunkedPauliReader::extend_chunk_packed: chunk already complete");
  }
  std::vector<std::uint64_t> words((size - have) * 2 * words2_);
  const std::size_t bytes = read_records(chunk_begin(chunk) + have,
                                         size - have, words.data(), nullptr);
  set.append(PackedPauliSet::from_raw(num_qubits_, size - have,
                                      std::move(words)));
  obs::count(obs::Counter::SpillBytesRead, bytes);
  if (loaded_.size() < num_chunks()) loaded_.resize(num_chunks(), false);
  loaded_[chunk] = true;
}

std::size_t append_pauli_set(const PauliSet& delta, const std::string& path) {
  {
    const ReadOnlyFile file(path);
    if (!file.is_open()) {
      throw std::runtime_error("append_pauli_set: cannot open " + path);
    }
    std::uint64_t header[2] = {};
    if (file.read_at(header, sizeof(header), 0) != sizeof(header)) {
      throw std::runtime_error("append_pauli_set: truncated .pset header in " +
                               path);
    }
    if (header[0] != kMagic) {
      throw std::runtime_error("append_pauli_set: bad magic in " + path);
    }
    if (!delta.empty() && header[1] != delta.num_qubits()) {
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
  const std::size_t count = delta.size();
  const std::size_t records = count * pset_record_bytes(delta.num_qubits());
  // Failpoint "spill.append": same contract as "spill.write" — short:N
  // leaves a torn segment with no trailer for reopen to reject.
  const std::size_t kept = PICASSO_FAILPOINT_CLAMP("spill.append", records);
  // Same tee as spill_pauli_set: the trailer covers the segment's bytes.
  util::WordHasher sum;
  HashingTee tee(out.rdbuf(), sum, kSegmentHeaderBytes + kept);
  std::ostream segment(&tee);
  write_pod(segment, kAppendMagic);
  write_pod(segment, static_cast<std::uint64_t>(count));
  delta.write_records(segment);
  if (kept == records) {
    write_pod(out, kTrailerMagic);
    write_pod(out, sum.digest());
  }
  out.flush();
  if (!segment || !out) throw_write_failure("append_pauli_set", path);
  obs::count(obs::Counter::SpillBytesWritten, kSegmentHeaderBytes + records);
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("append_pauli_set: cannot stat " + path);
  return static_cast<std::size_t>(size);
}

PackedPauliChunkCache::Charged::~Charged() {
  registry->release(util::MemSubsystem::ChunkCache, bytes);
}

std::shared_ptr<const PackedPauliSet> PackedPauliChunkCache::get(
    std::size_t chunk) {
  ++clock_;
  const auto cached = std::find_if(
      entries_.begin(), entries_.end(),
      [chunk](const Entry& e) { return e.chunk == chunk; });
  const std::size_t size = reader_->chunk_size(chunk);
  if (cached != entries_.end() && cached->owner->set.size() == size) {
    cached->last_use = clock_;
    ++hits_;
    obs::count(obs::Counter::ChunkCacheHits);
    return {cached->owner, &cached->owner->set};
  }
  ++misses_;
  obs::count(obs::Counter::ChunkCacheMisses);
  const std::size_t bytes = reader_->chunk_packed_resident_bytes(chunk);

  if (cached != entries_.end()) {
    // An append grew the chunk after it was cached (sync kept its intact
    // first records): read only the appended records, in place, when no
    // caller pins it and the budget admits the growth — so the chunk is
    // never charged twice. Otherwise it is reloaded whole below.
    Charged& grown = *cached->owner;
    if (grown.set.size() < size && cached->owner.use_count() == 1 &&
        registry_->try_charge(util::MemSubsystem::ChunkCache,
                              bytes - grown.bytes)) {
      try {
        reader_->extend_chunk_packed(chunk, grown.set);
      } catch (...) {
        registry_->release(util::MemSubsystem::ChunkCache,
                           bytes - grown.bytes);
        throw;
      }
      grown.bytes = bytes;
      cached->last_use = clock_;
      return {cached->owner, &grown.set};
    }
    entries_.erase(cached);
  }

  // Make room under the budget, oldest chunks first. try_charge is the
  // admission test; eviction only drops the cache's reference, so a chunk
  // pinned by the caller keeps its charge until the pin goes away.
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

  // Until a Charged owns it, the charge is released by hand on a throwing
  // read (I/O error, truncated file), or it would outlive the registry's
  // every later admission.
  std::shared_ptr<Charged> owner;
  try {
    owner = std::make_shared<Charged>(reader_->load_chunk_packed(chunk), bytes,
                                      *registry_);
  } catch (...) {
    registry_->release(util::MemSubsystem::ChunkCache, bytes);
    throw;
  }
  entries_.push_back({chunk, owner, clock_});
  return {owner, &owner->set};
}

void PackedPauliChunkCache::sync(std::size_t unchanged) {
  const std::size_t spc = reader_->strings_per_chunk();
  const std::size_t keep = unchanged / spc;  // the chunk `unchanged` ends in
  const std::size_t intact = unchanged % spc;  // its strings still valid
  std::erase_if(entries_, [&](const Entry& e) {
    return e.chunk > keep || (e.chunk == keep && e.owner->set.size() != intact);
  });
}

PackedRecordProber::PackedRecordProber(PackedView view)
    : view_(view),
      spc_(~std::size_t{0}),
      words_(view.words),
      block_counter_(best_simd_level() == SimdLevel::Avx2
                         ? obs::Counter::EdgeBlockCallsAvx2
                         : obs::Counter::EdgeBlockCallsScalar),
      kernel_(resolve_block_kernel(words_, best_simd_level())),
      swapped_(2 * words_),
      chunk_magic_(chunk_magic(spc_)) {}

PackedRecordProber::PackedRecordProber(const ChunkedPauliReader& reader,
                                       PackedPauliChunkCache& cache)
    : PackedRecordProber(PackedView{nullptr, reader.num_strings(),
                                    packed_words(reader.num_qubits())}) {
  cache_ = &cache;
  spc_ = reader.strings_per_chunk();
  chunk_magic_ = chunk_magic(spc_);
}

const std::uint64_t* PackedRecordProber::chunk_records(std::size_t chunk) {
  if (cache_ == nullptr) return view_.data;
  if (chunk == u_chunk_) return u_pin_->view().data;
  if (chunk != pin_chunk_) {
    // Drop the previous pin first: a chunk the cache has evicted stays
    // charged for as long as it is pinned.
    pin_.reset();
    pin_chunk_ = kNoChunk;  // until the lookup below succeeds
    pin_ = cache_->get(chunk);
    pin_chunk_ = chunk;
  }
  return pin_->view().data;
}

const std::uint64_t* PackedRecordProber::record(std::uint32_t id) {
  const std::size_t chunk = chunk_of(id);
  return chunk_records(chunk) + (id - chunk * spc_) * 2 * words_;
}

const std::uint64_t* PackedRecordProber::set_u(std::uint32_t u) {
  u_ = u;
  if (cache_ != nullptr) {
    pin_.reset();
    pin_chunk_ = kNoChunk;
    u_pin_.reset();
    u_chunk_ = kNoChunk;  // until the lookup below succeeds
    const std::size_t chunk = chunk_of(u);
    u_pin_ = cache_->get(chunk);
    u_chunk_ = chunk;
  }
  const std::uint64_t* rec = record(u);
  make_swapped_record(rec, words_, swapped_.data());
  return rec;
}

void PackedRecordProber::edges(const std::uint32_t* ids, std::size_t count,
                               std::uint8_t* out) {
  if (count == 0) return;
  const auto [lo, hi] = std::minmax_element(ids, ids + count);
  const std::size_t first = chunk_of(*lo);
  const std::size_t last = chunk_of(*hi);
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
  if (chunk_magic_ == 0) return id;  // one-string chunks
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(chunk_magic_) * id) >> 64);
}

void PackedRecordProber::probe_runs(const std::uint32_t* ids,
                                    std::size_t count, std::uint8_t* out) {
  // Either every id lies in one chunk or the ids ascend; each chunk's ids
  // then form one run. A resident view is the one chunk [0, spc_).
  for (std::size_t i = 0; i < count;) {
    const std::size_t chunk = chunk_of(ids[i]);
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
