// The bit-packed symplectic representation and its kernels: round-trip
// encode/decode, the anticommutation truth table against the scalar
// symplectic and inverse-one-hot checks (exhaustive on 1-3 qubits),
// word-boundary widths (63/64/65 qubits), and scalar-vs-AVX2 block-kernel
// agreement whenever the CPU can run both.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/oracles.hpp"
#include "pauli/encoding.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_string.hpp"
#include "util/rng.hpp"

namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pu = picasso::util;

namespace {

std::vector<pp::PauliString> random_strings(std::size_t count,
                                            std::size_t qubits,
                                            std::uint64_t seed) {
  pu::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// All 4^q strings over q qubits (exhaustive truth-table inputs).
std::vector<pp::PauliString> all_strings(std::size_t qubits) {
  std::vector<pp::PauliString> out;
  const std::size_t count = std::size_t{1} << (2 * qubits);
  out.reserve(count);
  for (std::size_t code = 0; code < count; ++code) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>((code >> (2 * q)) & 3));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

// --------------------------------------------------------------------------
// Representation round trips.

TEST(PackedPauliSet, EncodeDecodeRoundTrip) {
  for (const std::size_t qubits : {1u, 2u, 5u, 21u, 63u, 64u, 65u, 130u}) {
    const auto strings = random_strings(37, qubits, 1000 + qubits);
    const pp::PackedPauliSet packed(strings);
    ASSERT_EQ(packed.size(), strings.size());
    ASSERT_EQ(packed.num_qubits(), qubits);
    ASSERT_EQ(packed.words(), (qubits + 63) / 64);
    for (std::size_t i = 0; i < strings.size(); ++i) {
      EXPECT_EQ(packed.string(i), strings[i]) << "qubits=" << qubits;
    }
  }
}

TEST(PackedPauliSet, MatchesThePauliSetPlanes) {
  const auto strings = random_strings(64, 70, 77);
  const pp::PauliSet set(strings);
  const pp::PackedPauliSet from_strings(strings);
  const pp::PackedPauliSet from_set(set);

  // The borrowed view and both owning copies hold identical records.
  const pp::PackedView borrowed = set.packed_view();
  ASSERT_EQ(borrowed.size, strings.size());
  ASSERT_EQ(borrowed.words, from_strings.words());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    for (std::size_t k = 0; k < 2 * borrowed.words; ++k) {
      EXPECT_EQ(borrowed.record(i)[k], from_strings.record(i)[k]);
      EXPECT_EQ(borrowed.record(i)[k], from_set.record(i)[k]);
    }
  }
}

TEST(PackedPauliSet, FromRawRejectsWordCountMismatch) {
  EXPECT_THROW(pp::PackedPauliSet::from_raw(64, 3, std::vector<std::uint64_t>(5)),
               std::invalid_argument);
}

TEST(PackedPauliSet, RejectsInconsistentQubitCounts) {
  std::vector<pp::PauliString> strings{pp::PauliString(4), pp::PauliString(5)};
  EXPECT_THROW(pp::PackedPauliSet{strings}, std::invalid_argument);
}

// --------------------------------------------------------------------------
// Anticommutation truth table, exhaustive on 1-3 qubits.

TEST(PackedKernels, ExhaustiveTruthTableUpToThreeQubits) {
  for (const std::size_t qubits : {1u, 2u, 3u}) {
    const auto strings = all_strings(qubits);
    const pp::PauliSet set(strings);
    const pp::PackedPauliSet packed(strings);
    for (std::size_t i = 0; i < strings.size(); ++i) {
      for (std::size_t j = 0; j < strings.size(); ++j) {
        const bool truth = strings[i].anticommutes_with(strings[j]);
        ASSERT_EQ(packed.anticommute(i, j), truth)
            << "q=" << qubits << " i=" << i << " j=" << j;
        // Agreement with the set's plane kernel and the paper's 3-bit
        // kernel, not just the symbolic check.
        ASSERT_EQ(set.anticommute(i, j), truth);
        std::uint64_t a3 = 0, b3 = 0;  // <= 3 qubits: one 3-bit word each
        pp::encode3(strings[i], &a3);
        pp::encode3(strings[j], &b3);
        ASSERT_EQ(pp::anticommute3(&a3, &b3, 1), truth);
      }
    }
  }
}

TEST(PackedKernels, WordBoundaryWidths) {
  for (const std::size_t qubits : {63u, 64u, 65u}) {
    const auto strings = random_strings(48, qubits, 31 * qubits);
    const pp::PauliSet set(strings);
    const pp::PackedPauliSet packed(strings);
    for (std::size_t i = 0; i < strings.size(); ++i) {
      for (std::size_t j = i + 1; j < strings.size(); ++j) {
        ASSERT_EQ(packed.anticommute(i, j),
                  strings[i].anticommutes_with(strings[j]))
            << "qubits=" << qubits << " i=" << i << " j=" << j;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Block kernels: scalar blocks vs per-pair, and AVX2 vs scalar.

TEST(PackedKernels, ScalarBlockMatchesPerPair) {
  for (const std::size_t qubits : {8u, 64u, 100u, 129u, 250u}) {
    const auto strings = random_strings(150, qubits, 7 * qubits + 1);
    const pp::PackedPauliSet packed(strings);
    const auto kernel =
        pp::resolve_block_kernel(packed.words(), pp::SimdLevel::Scalar);
    std::vector<std::uint32_t> ids(packed.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::vector<std::uint64_t> swapped(2 * packed.words());
    std::vector<std::uint8_t> out(ids.size());
    for (std::size_t u = 0; u < packed.size(); u += 17) {
      pp::make_swapped_record(packed.record(u), packed.words(),
                              swapped.data());
      kernel(swapped.data(), packed.view().data, packed.words(), ids.data(),
             ids.size(), out.data());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        ASSERT_EQ(out[k] != 0, packed.anticommute(u, ids[k]))
            << "qubits=" << qubits << " u=" << u << " k=" << k;
      }
    }
  }
}

TEST(PackedKernels, Avx2AgreesWithScalarWhenAvailable) {
  if (pp::best_simd_level() != pp::SimdLevel::Avx2) {
    GTEST_SKIP() << "CPU lacks AVX2; scalar-only platform";
  }
  pu::Xoshiro256 rng(99);
  for (const std::size_t qubits : {1u, 17u, 63u, 64u, 65u, 128u, 129u, 300u}) {
    const auto strings = random_strings(200, qubits, 1234 + qubits);
    const pp::PackedPauliSet packed(strings);
    const auto scalar =
        pp::resolve_block_kernel(packed.words(), pp::SimdLevel::Scalar);
    const auto simd =
        pp::resolve_block_kernel(packed.words(), pp::SimdLevel::Avx2);
    // Random candidate subsets of varying length, including the <4 tail.
    for (std::size_t trial = 0; trial < 12; ++trial) {
      const std::size_t count = 1 + rng.bounded(packed.size());
      std::vector<std::uint32_t> ids(count);
      for (auto& id : ids) {
        id = static_cast<std::uint32_t>(rng.bounded(packed.size()));
      }
      const auto u = static_cast<std::size_t>(rng.bounded(packed.size()));
      std::vector<std::uint64_t> swapped(2 * packed.words());
      pp::make_swapped_record(packed.record(u), packed.words(),
                              swapped.data());
      std::vector<std::uint8_t> out_scalar(count), out_simd(count);
      scalar(swapped.data(), packed.view().data, packed.words(), ids.data(),
             count, out_scalar.data());
      simd(swapped.data(), packed.view().data, packed.words(), ids.data(),
           count, out_simd.data());
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_EQ(out_scalar[k], out_simd[k])
            << "qubits=" << qubits << " trial=" << trial << " k=" << k;
      }
    }
  }
}

TEST(PackedKernels, SimdLevelResolution) {
  EXPECT_NE(pp::best_simd_level(), pp::SimdLevel::Auto);
  EXPECT_EQ(pp::resolve_simd_level(pp::SimdLevel::Scalar),
            pp::SimdLevel::Scalar);
  EXPECT_EQ(pp::resolve_simd_level(pp::SimdLevel::Auto),
            pp::best_simd_level());
  // An explicit AVX2 request never resolves above what the CPU has.
  const auto resolved = pp::resolve_simd_level(pp::SimdLevel::Avx2);
  EXPECT_TRUE(resolved == pp::best_simd_level() ||
              resolved == pp::SimdLevel::Scalar);
}

// --------------------------------------------------------------------------
// The packed conflict oracle.

TEST(PackedComplementOracle, EdgeAndEdgeBlockMatchTheScalarOracle) {
  const auto strings = random_strings(120, 40, 555);
  const pp::PauliSet set(strings);
  const pg::ComplementOracle scalar(set);
  const pg::PackedComplementOracle packed(set.packed_view());

  ASSERT_EQ(packed.num_vertices(), scalar.num_vertices());
  std::vector<std::uint32_t> ids(set.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint8_t> block(set.size());
  for (std::uint32_t u = 0; u < set.size(); ++u) {
    packed.edge_block(u, ids.data(), ids.size(), block.data());
    for (std::uint32_t v = 0; v < set.size(); ++v) {
      const bool expected = scalar.edge(u, v);
      ASSERT_EQ(packed.edge(u, v), expected) << "u=" << u << " v=" << v;
      ASSERT_EQ(block[v] != 0, expected) << "u=" << u << " v=" << v;
    }
  }
}

TEST(PackedAnticommuteOracle, MatchesTheScalarAnticommuteOracle) {
  const auto strings = random_strings(80, 66, 777);
  const pp::PauliSet set(strings);
  const pg::AnticommuteOracle scalar(set);
  const pg::PackedAnticommuteOracle packed(set.packed_view());
  std::vector<std::uint32_t> ids(set.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint8_t> block(set.size());
  for (std::uint32_t u = 0; u < set.size(); u += 3) {
    packed.edge_block(u, ids.data(), ids.size(), block.data());
    for (std::uint32_t v = 0; v < set.size(); ++v) {
      ASSERT_EQ(packed.edge(u, v), scalar.edge(u, v));
      ASSERT_EQ(block[v] != 0, scalar.edge(u, v));
    }
  }
}

TEST(PackedComplementOracle, EmptyAndZeroQubitSets) {
  const pp::PackedPauliSet empty;
  const pg::PackedComplementOracle oracle(empty.view());
  EXPECT_EQ(oracle.num_vertices(), 0u);

  // 0-qubit strings all commute: complement edges everywhere off-diagonal.
  const std::vector<pp::PauliString> zeros(3, pp::PauliString(0));
  const pp::PackedPauliSet packed(zeros);
  const pg::PackedComplementOracle z_oracle(packed.view());
  EXPECT_FALSE(z_oracle.edge(1, 1));
  EXPECT_TRUE(z_oracle.edge(0, 2));
}
