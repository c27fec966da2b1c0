// §IV-A microbenchmarks: anticommutation kernels.
//
// The paper reports 1.4-2.0x speedup for the inverse-one-hot bit encoding
// over character comparison on CPU, including encoding overhead. This bench
// measures: character-comparison reference, the 3-bit inverse-one-hot
// kernel, the 2-bit symplectic alternative, the end-to-end cost
// (encode + test sweep) that the paper's claim includes, and the packed
// conflict-oracle kernels — the parity-fold scalar kernel and the
// runtime-dispatched SIMD block kernel (pauli/pauli_packed.hpp).

#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "pauli/encoding.hpp"
#include "pauli/pauli_packed.hpp"
#include "util/rng.hpp"

namespace {

using namespace picasso;

std::vector<pauli::PauliString> random_strings(std::size_t count,
                                               std::size_t qubits,
                                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<pauli::PauliString> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pauli::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pauli::PauliOp>(rng.bounded(4)));
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Inverse-one-hot words of every string, `words` per string.
std::vector<std::uint64_t> encode3_all(
    const std::vector<pauli::PauliString>& strings, std::size_t words) {
  std::vector<std::uint64_t> codes(strings.size() * words);
  for (std::size_t i = 0; i < strings.size(); ++i) {
    pauli::encode3(strings[i], codes.data() + i * words);
  }
  return codes;
}

constexpr std::size_t kStrings = 512;

void BM_AnticommuteChars(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto strings = random_strings(kStrings, qubits, 1);
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += pauli::anticommute_chars(strings[i], strings[j]) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommuteChars)->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64);

void BM_AnticommuteEncoded3(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const std::size_t w = pauli::words_per_string3(qubits);
  const auto codes = encode3_all(random_strings(kStrings, qubits, 1), w);
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += pauli::anticommute3(&codes[i * w], &codes[j * w], w) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommuteEncoded3)->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64);

// Symplectic planes through the per-word popcount kernel (anticommute2).
void BM_AnticommuteSymplectic2(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PackedPauliSet set(random_strings(kStrings, qubits, 1));
  const std::size_t w = set.words();
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += pauli::anticommute2(set.record(i), set.record(i) + w,
                                   set.record(j), set.record(j) + w, w)
                   ? 1
                   : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommuteSymplectic2)->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64);

// Packed symplectic records, per-pair scalar kernel: the parity-fold form
// (one AND+XOR per word, a single popcount at the end).
void BM_AnticommutePackedScalar(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PackedPauliSet packed(random_strings(kStrings, qubits, 1));
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += packed.anticommute(i, j) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommutePackedScalar)
    ->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64)->Arg(128)->Arg(256);

// Packed records through the block kernel at the requested SIMD level:
// one row against all later rows per call, the blocked pair-scan's shape.
template <pauli::SimdLevel kLevel>
void BM_AnticommutePackedBlock(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PackedPauliSet packed(random_strings(kStrings, qubits, 1));
  if (kLevel == pauli::SimdLevel::Avx2 &&
      pauli::best_simd_level() != pauli::SimdLevel::Avx2) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const auto kernel = pauli::resolve_block_kernel(packed.words(), kLevel);
  std::vector<std::uint32_t> ids(kStrings);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint64_t> swapped(2 * packed.words());
  std::vector<std::uint8_t> out(kStrings);
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < kStrings; ++i) {
      pauli::make_swapped_record(packed.record(i), packed.words(),
                                 swapped.data());
      kernel(swapped.data(), packed.view().data, packed.words(),
             ids.data() + i + 1, kStrings - i - 1, out.data());
      for (std::size_t k = 0; k < kStrings - i - 1; ++k) odd += out[k];
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK_TEMPLATE(BM_AnticommutePackedBlock, pauli::SimdLevel::Scalar)
    ->Arg(8)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_TEMPLATE(BM_AnticommutePackedBlock, pauli::SimdLevel::Avx2)
    ->Arg(8)->Arg(64)->Arg(128)->Arg(256);

// The paper's end-to-end claim includes the encoding overhead: encode the
// whole set, then run the pairwise sweep once.
void BM_EncodeThenSweep(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto strings = random_strings(kStrings, qubits, 1);
  std::size_t odd = 0;
  for (auto _ : state) {
    const std::size_t w = pauli::words_per_string3(qubits);
    const auto codes = encode3_all(strings, w);  // encoding overhead counted
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += pauli::anticommute3(&codes[i * w], &codes[j * w], w) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_EncodeThenSweep)->Arg(16)->Arg(24)->Arg(40);

void BM_EncodeOnly(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto strings = random_strings(kStrings, qubits, 1);
  std::vector<std::uint64_t> words(pauli::words_per_string3(qubits));
  for (auto _ : state) {
    for (const auto& s : strings) {
      pauli::encode3(s, words.data());
      benchmark::DoNotOptimize(words.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kStrings);
}
BENCHMARK(BM_EncodeOnly)->Arg(16)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
