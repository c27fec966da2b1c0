// Seeded mutation test of the `.colors` sidecar reader (read_spill_colors
// over PackedColorArray::load), the parser of the packed coloring a spilled
// incremental store writes next to its `.pset` and reads back. Starting from
// valid sidecars (a 4-bit array with escapes and a 32-bit array), ~2k
// bounded mutants (bit flips in every section including the trailer,
// truncations, header-field splices, with and without the checksum trailer)
// go through read_spill_colors. Each must either be rejected with
// std::runtime_error or load an array whose every entry is readable; a
// sidecar with its trailer intact opens only when it is the original bytes,
// and no allocation exceeds what the file's size can justify. Runs in the
// default ctest suite, and so under the ASan/UBSan job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "pauli/pauli_stream.hpp"
#include "util/packed_colors.hpp"
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
using picasso::util::PackedColorArray;

constexpr std::size_t kMutants = 2000;
// Header: "PCL1", u32 width, u64 size, u64 escape count.
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kTrailerBytes = 16;
// Allocation slack beyond twice the file size: stream buffers.
constexpr std::size_t kAllocSlack = 16 << 10;

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v,
            int width_bytes) {
  for (int i = 0; i < width_bytes; ++i) {
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

/// A 4-bit array with kNoColor holes and escaped values, and a flat 32-bit
/// one: between them every load path (packed words, escapes, full words).
std::vector<PackedColorArray> originals() {
  picasso::util::Xoshiro256 rng(0xc0105);
  PackedColorArray packed(300, PackedColorArray::kNoColor, 10);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    if (rng.bounded(8) == 0) continue;  // kNoColor hole
    packed[i] = static_cast<std::uint32_t>(rng.bounded(12));
  }
  for (std::size_t i = 5; i < packed.size(); i += 31) {
    packed[i] = 5000 + static_cast<std::uint32_t>(i);  // escapes
  }
  std::vector<std::uint32_t> flat(90);
  for (auto& value : flat) {
    value = 70000 + static_cast<std::uint32_t>(rng.bounded(1000));
  }
  return {packed, PackedColorArray(flat)};
}

/// Reads every entry, so a loaded array whose codes and escape table
/// disagree trips the sanitizers here rather than going unnoticed.
std::uint64_t read_all(const PackedColorArray& colors) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < colors.size(); ++i) sum += colors.get(i);
  return sum;
}

}  // namespace

TEST(ColorsMutation, TinyFileClaimingHugeCountIsRejected) {
  TempFile file("picasso_sidecar_huge_count.pset.colors");
  for (const std::uint32_t width : {2u, 32u}) {
    for (const bool huge_escapes : {false, true}) {
      std::vector<std::uint8_t> bytes(kHeaderBytes, 0);
      bytes[0] = 'P';
      bytes[1] = 'C';
      bytes[2] = 'L';
      bytes[3] = '1';
      put_le(bytes, 4, width, 4);
      put_le(bytes, 8, huge_escapes ? 4 : std::uint64_t{1} << 40, 8);
      put_le(bytes, 16, huge_escapes ? std::uint64_t{1} << 40 : 0, 8);
      write_file(file.path, bytes);
      SCOPED_TRACE("width " + std::to_string(width) +
                   (huge_escapes ? " escapes" : " size"));

      g_largest_alloc = 0;
      try {
        const PackedColorArray colors =
            pp::read_spill_colors(file.path.string());
        ADD_FAILURE() << "a 24-byte sidecar loaded " << colors.size()
                      << " entries";
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(file.path.string()),
                  std::string::npos)
            << error.what();
      }
      EXPECT_LT(g_largest_alloc.load(), kAllocSlack);
    }
  }
}

TEST(ColorsMutation, EscapeTableMustMatchTheCodes) {
  // Structurally valid headers whose escape table lies: out of range,
  // unsorted, pointing at an inline slot, or missing for an escape code.
  PackedColorArray colors(8, PackedColorArray::kNoColor, 2);  // width 2
  colors[1] = 0;
  colors[3] = 900;  // escaped
  colors[6] = 901;  // escaped
  ASSERT_EQ(colors.escape_count(), 2u);
  TempFile file("picasso_sidecar_escapes.pset.colors");
  pp::write_spill_colors(file.path.string(), colors);
  std::vector<std::uint8_t> valid = read_file(file.path);
  valid.resize(valid.size() - kTrailerBytes);  // trailer-less sidecar
  const std::size_t escapes_at = valid.size() - 2 * 12;
  {
    write_file(file.path, valid);
    EXPECT_TRUE(pp::read_spill_colors(file.path.string()) == colors);
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> lies = {
      {3, 8},  // index == size
      {6, 3},  // unsorted
      {3, 3},  // duplicate
      {1, 6},  // slot 1 holds an inline color
  };
  for (const auto& [first, second] : lies) {
    std::vector<std::uint8_t> bytes = valid;
    put_le(bytes, escapes_at, first, 8);
    put_le(bytes, escapes_at + 12, second, 8);
    write_file(file.path, bytes);
    EXPECT_THROW(pp::read_spill_colors(file.path.string()), std::runtime_error)
        << first << "," << second;
  }
  // One escape code left without an entry.
  std::vector<std::uint8_t> bytes = valid;
  put_le(bytes, 16, 1, 8);
  bytes.resize(bytes.size() - 12);
  write_file(file.path, bytes);
  EXPECT_THROW(pp::read_spill_colors(file.path.string()), std::runtime_error);
}

TEST(ColorsMutation, EveryMutantIsRejectedOrReadable) {
  const std::vector<PackedColorArray> arrays = originals();
  ASSERT_EQ(arrays[0].width_bits(), 4u);
  ASSERT_GT(arrays[0].escape_count(), 0u);
  ASSERT_EQ(arrays[1].width_bits(), 32u);
  TempFile file("picasso_sidecar_mutation.pset.colors");
  std::vector<std::vector<std::uint8_t>> valid;
  for (const auto& colors : arrays) {
    pp::write_spill_colors(file.path.string(), colors);
    valid.push_back(read_file(file.path));
    ASSERT_TRUE(pp::read_spill_colors(file.path.string()) == colors);
  }

  // Values a header field is spliced with: boundaries, neighbours of the
  // true counts, and counts no file could hold.
  const std::vector<std::uint64_t> splices = {0,
                                              1,
                                              2,
                                              4,
                                              8,
                                              32,
                                              arrays[0].size() - 1,
                                              arrays[0].size() + 1,
                                              arrays[0].escape_count() + 1,
                                              0xffffffffULL,
                                              std::uint64_t{1} << 40,
                                              std::uint64_t{1} << 62,
                                              ~std::uint64_t{0}};
  // Header fields as (offset, bytes): width, size, escape count.
  const std::pair<std::size_t, int> fields[] = {{4, 4}, {8, 8}, {16, 8}};

  picasso::util::Xoshiro256 rng(2026);
  std::size_t rejected = 0, opened = 0, checksum_rejects = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const std::size_t which = rng.bounded(arrays.size());
    std::vector<std::uint8_t> bytes = valid[which];
    const std::size_t blob_bytes = bytes.size() - kTrailerBytes;
    // Half the mutants drop the checksum trailer first, so the structural
    // checks, not the checksum, must catch them.
    const bool trailerless = m % 2 == 1;
    if (trailerless) bytes.resize(blob_bytes);
    bool payload_only = false;
    switch (m / 2 % 3) {
      case 0: {  // 1-4 random bit flips anywhere, trailer included
        const std::size_t flips = 1 + rng.bounded(4);
        payload_only = !trailerless;
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t at = rng.bounded(bytes.size());
          bytes[at] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
          // Checksum-covered: the blob and the checksum word.
          payload_only =
              payload_only && (at < blob_bytes || at >= blob_bytes + 8);
        }
        break;
      }
      case 1:  // truncation: half at section boundaries, half anywhere
        if (rng.bounded(2) == 0) {
          const std::size_t cuts[] = {0, 4, kHeaderBytes, blob_bytes - 12,
                                      blob_bytes, blob_bytes + 8};
          bytes.resize(std::min(bytes.size(), cuts[rng.bounded(6)]));
        } else {
          bytes.resize(rng.bounded(bytes.size()));
        }
        break;
      default: {  // header-field splice
        const auto [at, width_bytes] = fields[rng.bounded(3)];
        put_le(bytes, at, splices[rng.bounded(splices.size())], width_bytes);
        break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(m));
    // The original sidecar, with or without its trailer.
    const bool unchanged =
        bytes == valid[which] ||
        (bytes.size() == blob_bytes &&
         std::equal(bytes.begin(), bytes.end(), valid[which].begin()));
    write_file(file.path, bytes);
    const std::size_t cap = 2 * bytes.size() + kAllocSlack;
    g_largest_alloc = 0;
    try {
      const PackedColorArray colors = pp::read_spill_colors(file.path.string());
      EXPECT_LE(g_largest_alloc.load(), cap);
      EXPECT_LE(colors.size(), 4 * bytes.size());
      read_all(colors);
      if (unchanged) {
        EXPECT_TRUE(colors == arrays[which]);
      } else {
        // Only a sidecar without its checksum can open damaged.
        EXPECT_EQ(bytes.size(), blob_bytes)
            << "a damaged checked sidecar opened";
      }
      ++opened;
    } catch (const std::runtime_error& error) {
      EXPECT_LE(g_largest_alloc.load(), cap);
      EXPECT_FALSE(unchanged) << error.what();
      if (payload_only) {
        EXPECT_NE(std::string(error.what()).find("checksum"),
                  std::string::npos)
            << error.what();
        ++checksum_rejects;
      }
      ++rejected;
    }
  }
  // Every outcome occurs, so no check above is vacuous.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(opened, kMutants / 50);
  EXPECT_GT(checksum_rejects, kMutants / 20);
}
