// Seeded mutation test of the dataset disk cache (pauli/datasets.cpp), whose
// entries are .pset spills read back through the checksum-verifying
// ChunkedPauliReader. Starting from one healthy cache entry, ~600 bounded
// mutants (bit flips anywhere, truncations, count-field splices, trailing
// garbage, the retired 3-bit magic) replace the file before a cold load;
// each load must return the set a fresh generation builds — by
// regenerating it (and re-caching a healthy file) or by loading an
// unchanged file — never crash, and never allocate more than the file's
// size or a clean regeneration justifies. A flipped operator bit is a
// valid-looking record, so only the checksum stands between it and a wrong
// set served silently. Runs in the default ctest suite, and so under the
// ASan/UBSan job.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "pauli/datasets.hpp"
#include "pauli/pauli_set.hpp"
#include "util/rng.hpp"

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

constexpr std::size_t kMutants = 600;
// Allocation slack beyond twice the file size: the reader's buffers and
// bookkeeping.
constexpr std::size_t kAllocSlack = 80 << 10;

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

class DatasetCacheMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("picasso_dsmut_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::setenv("PICASSO_DATA_DIR", dir_.c_str(), 1);
    pp::clear_dataset_cache();
  }

  void TearDown() override {
    pp::clear_dataset_cache();
    ::unsetenv("PICASSO_DATA_DIR");
    fs::remove_all(dir_);
  }

  /// The same tiny recipe as test_datasets_cache: cheap to regenerate for
  /// every mutant.
  static pp::DatasetSpec tiny_spec() {
    pp::MoleculeSpec molecule;
    molecule.num_atoms = 2;
    molecule.geometry = pp::Geometry::Chain1D;
    molecule.basis = pp::Basis::STO3G;
    pp::DatasetSpec spec;
    spec.name = molecule.name() + "_cache_mutation";
    spec.molecule = molecule;
    spec.size_class = pp::SizeClass::Small;
    spec.cap = 64;
    spec.with_ansatz = false;
    return spec;
  }

  /// The one cache entry in the directory (staging files never linger).
  fs::path cached_file() const {
    fs::path found;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      EXPECT_EQ(entry.path().extension(), ".pset") << entry.path();
      found = entry.path();
    }
    return found;
  }

  /// Plane words, coefficients and fingerprint.
  static void expect_same_set(const pp::PauliSet& got,
                              const pp::PauliSet& want) {
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.num_qubits(), want.num_qubits());
    const pp::PackedView a = got.packed_view(), b = want.packed_view();
    ASSERT_TRUE(std::equal(a.data, a.data + a.size * a.record_words(), b.data));
    EXPECT_EQ(got.coefficients(), want.coefficients());
    const picasso::core::PicassoParams params;
    EXPECT_EQ(picasso::api::problem_fingerprint(got, params),
              picasso::api::problem_fingerprint(want, params));
  }

  fs::path dir_;
};

}  // namespace

TEST_F(DatasetCacheMutation, EveryMutantRegeneratesOrLoadsTheSameSet) {
  const pp::DatasetSpec spec = tiny_spec();
  const pp::PauliSet fresh = pp::load_dataset(spec);
  ASSERT_GT(fresh.size(), 0u);
  const fs::path file = cached_file();
  ASSERT_EQ(file.filename().string().find("_xz1.pset"),
            file.filename().string().size() - 9)
      << file;
  const std::vector<std::uint8_t> valid = read_file(file);
  const std::size_t record = pp::pset_record_bytes(fresh.num_qubits());
  ASSERT_EQ(valid.size(), 24 + fresh.size() * record + 16);

  // What a cold load that regenerates allocates at most.
  pp::clear_dataset_cache();
  fs::remove(file);
  g_largest_alloc = 0;
  expect_same_set(pp::load_dataset(spec), fresh);
  const std::size_t regenerate_alloc = g_largest_alloc.load();

  const std::uint64_t splices[] = {0,
                                   1,
                                   fresh.size() - 1,
                                   fresh.size() + 1,
                                   fresh.num_qubits() + 1,
                                   fresh.num_qubits() + 8,
                                   0xffffffffULL,
                                   std::uint64_t{1} << 40,
                                   std::uint64_t{1} << 60,
                                   ~std::uint64_t{0}};
  picasso::util::Xoshiro256 rng(2026);
  std::size_t regenerated = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> bytes = valid;
    switch (m % 5) {
      case 0:
      case 1: {  // 1-4 random bit flips anywhere
        const std::size_t flips = 1 + rng.bounded(4);
        for (std::size_t f = 0; f < flips; ++f) {
          bytes[rng.bounded(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.bounded(8));
        }
        break;
      }
      case 2:  // truncation
        bytes.resize(rng.bounded(bytes.size()));
        break;
      case 3:  // qubit- or string-count splice
        put_u64(bytes, rng.bounded(2) == 0 ? 8 : 16,
                splices[rng.bounded(std::size(splices))]);
        break;
      default: {  // trailing garbage, or the retired 3-bit magic
        if (rng.bounded(2) == 0) {
          bytes.resize(bytes.size() + 1 + rng.bounded(40),
                       static_cast<std::uint8_t>(rng.bounded(256)));
        } else {
          put_u64(bytes, 0, 0x5041554c49534554ULL);  // "PAULISET"
        }
        break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(m));
    write_file(file, bytes);
    pp::clear_dataset_cache();
    g_largest_alloc = 0;
    const pp::PauliSet& loaded = pp::load_dataset(spec);
    EXPECT_LE(g_largest_alloc.load(),
              std::max(regenerate_alloc, 2 * bytes.size() + kAllocSlack));
    expect_same_set(loaded, fresh);
    // A damaged entry is replaced by a healthy one.
    const std::vector<std::uint8_t> now = read_file(cached_file());
    EXPECT_EQ(now, valid);
    if (bytes != valid) ++regenerated;
  }
  // Every kind of damage occurred and was caught.
  EXPECT_GT(regenerated, kMutants * 9 / 10);
}

TEST_F(DatasetCacheMutation, FlippedOperatorBitIsRegeneratedNotServed) {
  const pp::DatasetSpec spec = tiny_spec();
  const pp::PauliSet fresh = pp::load_dataset(spec);
  const fs::path file = cached_file();
  std::vector<std::uint8_t> bytes = read_file(file);
  // Qubit 0 of the first string's z plane: a valid, different record.
  bytes[24 + pp::plane_bytes(fresh.num_qubits())] ^= 0x01;
  write_file(file, bytes);
  pp::clear_dataset_cache();
  expect_same_set(pp::load_dataset(spec), fresh);
}
