// Seeded mutation test of the .pset spill reader, the parser of the bytes a
// budgeted session writes and reads back on every update. Starting from one
// valid spill (a base block and two append segments, each with a checksum
// trailer), ~2k bounded mutants (bit flips in every section including the
// trailers, truncations, count-field splices) go through ChunkedPauliReader;
// each must either be rejected with std::runtime_error /
// std::invalid_argument or open a reader whose every chunk equals the
// original strings at the same ids. A flip inside a trailer-covered payload
// is rejected as a checksum mismatch, and no allocation exceeds what the
// file's size can justify. Explicit cases pin the structured errors of a
// record with a plane bit set above the qubit count (under a valid
// checksum) and of a file in the retired 3-bit layout. Runs in the default
// ctest suite, and so under the ASan/UBSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pauli/encoding.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/rng.hpp"
#include "util/word_hash.hpp"

namespace {
// Largest single operator-new request since the last reset.
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t bytes) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (bytes > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, bytes,
                                                std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace pp = picasso::pauli;
namespace fs = std::filesystem;

constexpr std::size_t kMutants = 2100;
constexpr std::size_t kQubits = 30;
constexpr std::size_t kChunk = 16;
// Allocation slack beyond twice the file size: stream buffers and the
// reader's small bookkeeping.
constexpr std::size_t kAllocSlack = 16 << 10;

pp::PauliSet random_set(std::size_t count, std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  std::vector<double> coefs;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(kQubits);
    for (std::size_t q = 0; q < kQubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
    coefs.push_back(rng.uniform());
  }
  return pp::PauliSet(strings, coefs);
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Scratch file that cleans up after itself.
struct TempFile {
  fs::path path;
  explicit TempFile(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove(path);
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

/// Byte layout of the original spill: where each block's checksummed
/// payload lies, where its trailer sits, and the count fields.
struct Layout {
  std::vector<std::pair<std::size_t, std::size_t>> payloads;  // [begin, end)
  std::vector<std::size_t> trailers;     // offset of each trailer's magic
  std::vector<std::size_t> count_fields;  // qubits, base count, seg counts
  std::vector<std::size_t> boundaries;    // ends of whole blocks
};

Layout layout_of(const std::vector<std::size_t>& counts) {
  const std::size_t rec = pp::pset_record_bytes(kQubits);
  Layout out;
  out.count_fields = {8, 16};
  std::size_t pos = 24 + counts[0] * rec;
  out.payloads.push_back({24, pos});
  out.boundaries.push_back(24 + counts[0] / 2 * rec);  // mid-records
  out.boundaries.push_back(pos);  // base without its trailer
  out.trailers.push_back(pos);
  pos += 16;
  out.boundaries.push_back(pos);
  for (std::size_t s = 1; s < counts.size(); ++s) {
    out.count_fields.push_back(pos + 8);
    const std::size_t end = pos + 16 + counts[s] * rec;
    out.payloads.push_back({pos + 16, end});
    out.boundaries.push_back(end);
    out.trailers.push_back(end);
    pos = end + 16;
    out.boundaries.push_back(pos);
  }
  return out;
}

/// True when byte `at` is checksummed data whose damage cannot change the
/// file's structure: section payloads and the trailers' checksum words.
bool in_payload(const Layout& layout, std::size_t at) {
  for (const auto& [begin, end] : layout.payloads) {
    if (at >= begin && at < end) return true;
  }
  for (std::size_t t : layout.trailers) {
    if (at >= t + 8 && at < t + 16) return true;
  }
  return false;
}

/// Every chunk of `reader` equals `all` at the same global ids, in both the
/// full and the packed form.
void expect_chunks_match(const pp::ChunkedPauliReader& reader,
                         const pp::PauliSet& all) {
  ASSERT_EQ(reader.num_qubits(), all.num_qubits());
  ASSERT_LE(reader.num_strings(), all.size());
  const pp::PackedView want = all.packed_view();
  for (std::size_t chunk = 0; chunk < reader.num_chunks(); ++chunk) {
    const std::size_t begin = reader.chunk_begin(chunk);
    const pp::PauliSet loaded = reader.load_chunk(chunk);
    const pp::PackedPauliSet packed = reader.load_chunk_packed(chunk);
    ASSERT_EQ(loaded.size(), reader.chunk_size(chunk));
    ASSERT_EQ(packed.size(), reader.chunk_size(chunk));
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      ASSERT_EQ(std::memcmp(loaded.packed_view().record(i),
                            want.record(begin + i), 2 * want.words * 8),
                0);
      ASSERT_EQ(loaded.coefficients()[i], all.coefficients()[begin + i]);
      ASSERT_EQ(std::memcmp(packed.record(i), want.record(begin + i),
                            2 * want.words * 8),
                0);
    }
  }
}

}  // namespace

TEST(PsetMutation, TinyFileClaimingHugeCountIsRejected) {
  TempFile file("picasso_pset_huge_count.pset");
  std::vector<std::uint8_t> bytes(24, 0);
  put_u64(bytes, 0, pp::PauliSet::kBinaryMagic);
  put_u64(bytes, 8, 4);
  put_u64(bytes, 16, std::uint64_t{1} << 60);
  write_file(file.path, bytes);

  g_largest_alloc = 0;
  try {
    pp::ChunkedPauliReader reader(file.path.string(), 8);
    ADD_FAILURE() << "a 24-byte file opened with " << reader.num_strings()
                  << " strings";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(file.path.string()),
              std::string::npos)
        << error.what();
  }
  EXPECT_LT(g_largest_alloc.load(), kAllocSlack);
}

TEST(PsetMutation, EveryMutantIsRejectedOrMatchesTheOriginal) {
  const std::vector<std::size_t> counts = {40, 15, 12};
  pp::PauliSet all;
  std::vector<pp::PauliSet> blocks;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    blocks.push_back(random_set(counts[s], 100 + s));
    all.append(blocks.back());
  }
  TempFile file("picasso_pset_mutation.pset");
  pp::spill_pauli_set(blocks[0], file.path.string());
  for (std::size_t s = 1; s < blocks.size(); ++s) {
    pp::append_pauli_set(blocks[s], file.path.string());
  }
  const std::vector<std::uint8_t> valid = read_file(file.path);
  const Layout layout = layout_of(counts);
  ASSERT_EQ(valid.size(), layout.boundaries.back());
  {
    pp::ChunkedPauliReader reader(file.path.string(), kChunk);
    ASSERT_EQ(reader.num_strings(), all.size());
    expect_chunks_match(reader, all);
  }

  // Values a count field is spliced with: boundaries, the true counts and
  // their neighbours, and counts no file could hold.
  std::vector<std::uint64_t> splices = {0,
                                        1,
                                        2,
                                        kQubits,
                                        0xffffffffULL,
                                        std::uint64_t{1} << 40,
                                        std::uint64_t{1} << 60,
                                        std::uint64_t{1} << 63,
                                        ~std::uint64_t{0},
                                        ~std::uint64_t{0} - 63};
  for (std::size_t count : counts) {
    splices.insert(splices.end(), {count - 1, count, count + 1});
  }

  picasso::util::Xoshiro256 rng(2025);
  std::size_t rejected = 0, opened = 0, checksum_rejects = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> bytes = valid;
    bool payload_only = false;
    switch (m % 3) {
      case 0: {  // 1-4 random bit flips anywhere, trailers included
        const std::size_t flips = 1 + rng.bounded(4);
        payload_only = true;
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t at = rng.bounded(bytes.size());
          bytes[at] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
          payload_only = payload_only && in_payload(layout, at);
        }
        if (bytes == valid) continue;  // flips cancelled out
        break;
      }
      case 1:  // truncation: half at block boundaries, half anywhere
        if (rng.bounded(2) == 0) {
          bytes.resize(layout.boundaries[rng.bounded(
              layout.boundaries.size())]);
        } else {
          bytes.resize(rng.bounded(bytes.size()));
        }
        break;
      default: {  // count-field splice
        const std::size_t at =
            layout.count_fields[rng.bounded(layout.count_fields.size())];
        put_u64(bytes, at, splices[rng.bounded(splices.size())]);
        break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(m));
    write_file(file.path, bytes);
    const std::size_t cap = 2 * bytes.size() + kAllocSlack;
    g_largest_alloc = 0;
    try {
      pp::ChunkedPauliReader reader(file.path.string(), kChunk);
      expect_chunks_match(reader, all);
      EXPECT_LE(g_largest_alloc.load(), cap);
      // Flips never open: every byte is checksummed or structural.
      EXPECT_NE(m % 3, 0u) << "a bit-flipped spill opened";
      ++opened;
    } catch (const std::runtime_error& error) {
      EXPECT_LE(g_largest_alloc.load(), cap);
      if (payload_only) {
        EXPECT_NE(std::string(error.what()).find("checksum"),
                  std::string::npos)
            << error.what();
        ++checksum_rejects;
      }
      ++rejected;
    } catch (const std::invalid_argument&) {
      EXPECT_LE(g_largest_alloc.load(), cap);
      ++rejected;
    }
  }
  // Every outcome occurs, so no check above is vacuous.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(opened, kMutants / 20);
  EXPECT_GT(checksum_rejects, kMutants / 10);
}

TEST(PsetMutation, PaddingBitUnderAValidChecksumIsAStructuredError) {
  const pp::PauliSet set = random_set(20, 7);
  TempFile file("picasso_pset_padding.pset");
  pp::spill_pauli_set(set, file.path.string());
  std::vector<std::uint8_t> bytes = read_file(file.path);
  const std::size_t rec = pp::pset_record_bytes(kQubits);
  const std::size_t base_end = 24 + set.size() * rec;
  ASSERT_EQ(bytes.size(), base_end + 16);
  // Record 5's z plane, bit 31: 30 qubits leave bits 30 and 31 of the last
  // plane byte as padding. The trailer is recomputed, as a faulty writer
  // would, so only the record decode can notice.
  bytes[24 + 5 * rec + pp::plane_bytes(kQubits) + 3] ^= 0x80;
  picasso::util::WordHasher sum;
  sum.update(bytes.data(), base_end);
  put_u64(bytes, base_end + 8, sum.digest());
  write_file(file.path, bytes);

  const pp::ChunkedPauliReader reader(file.path.string(), kChunk);
  EXPECT_EQ(reader.num_strings(), set.size());
  for (const auto& load :
       {+[](const pp::ChunkedPauliReader& r) { r.load_chunk(0); },
        +[](const pp::ChunkedPauliReader& r) { r.load_chunk_packed(0); }}) {
    try {
      load(reader);
      ADD_FAILURE() << "a record with a padding bit loaded";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("corrupt record 5"), std::string::npos) << what;
      EXPECT_NE(what.find(file.path.string()), std::string::npos) << what;
    }
  }
  // The chunk without the bad record still loads.
  EXPECT_EQ(reader.load_chunk_packed(1).size(), set.size() - kChunk);
}

TEST(PsetMutation, OldMagicFileIsAStructuredError) {
  // A header in the retired 3-bit layout ("PAULISET"), whatever follows.
  TempFile file("picasso_pset_old_magic.pset");
  std::vector<std::uint8_t> bytes(24 + 4 * 16, 0);
  put_u64(bytes, 0, 0x5041554c49534554ULL);
  put_u64(bytes, 8, kQubits);
  put_u64(bytes, 16, 4);
  write_file(file.path, bytes);
  try {
    pp::ChunkedPauliReader reader(file.path.string(), kChunk);
    ADD_FAILURE() << "an old-magic file opened";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    EXPECT_NE(what.find("PAULISET"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path.string()), std::string::npos) << what;
  }
  EXPECT_THROW(pp::append_pauli_set(random_set(2, 8), file.path.string()),
               std::runtime_error);
}
