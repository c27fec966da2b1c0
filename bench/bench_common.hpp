#pragma once
// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every binary in build/bench regenerates one table or figure of the paper
// (see DESIGN.md §4 and EXPERIMENTS.md). Conventions:
//  * results averaged over kSeeds seeds, as the paper averages five runs;
//  * PICASSO_BENCH_SCALE=quick trims seeds and the largest datasets so the
//    whole suite stays snappy on small machines;
//  * explicit-graph baselines charge the CSR bytes they would have to hold
//    resident (the representation ColPack / Kokkos-EB / ECL-GC-R use).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/picasso.hpp"
#include "graph/oracles.hpp"
#include "obs/metrics.hpp"
#include "pauli/datasets.hpp"
#include "pauli/encoding.hpp"
#include "pauli/pauli_string.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace picasso::bench {

inline bool quick_mode() {
  const char* env = std::getenv("PICASSO_BENCH_SCALE");
  return env != nullptr && std::string(env) == "quick";
}

inline std::vector<std::uint64_t> seeds() {
  if (quick_mode()) return {1, 2};
  return {1, 2, 3, 4, 5};
}

/// Exact complement-edge count for small sets, pair-sampling estimate for
/// large ones (the quantity only labels rows; shape is unaffected).
inline std::uint64_t complement_edges_estimate(const pauli::PauliSet& set,
                                               bool* exact_out = nullptr) {
  const std::uint64_t n = set.size();
  if (n < 2) return 0;
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const bool exact = n <= 20000;
  if (exact_out != nullptr) *exact_out = exact;
  if (exact) {
    const graph::ComplementOracle oracle(set);
    return graph::count_edges(oracle);
  }
  util::Xoshiro256 rng(12345);
  const std::uint64_t samples = 2'000'000;
  std::uint64_t hits = 0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const auto u = static_cast<std::uint32_t>(rng.bounded(n));
    auto v = static_cast<std::uint32_t>(rng.bounded(n - 1));
    if (v >= u) ++v;
    hits += set.anticommute(u, v) ? 0 : 1;
  }
  const double density =
      static_cast<double>(hits) / static_cast<double>(samples);
  return static_cast<std::uint64_t>(density *
                                    static_cast<double>(total_pairs));
}

/// Bytes an explicit CSR of the ~50%-dense complement graph occupies:
/// (n+1) 8-byte offsets + 2|E| 4-byte neighbor ids. This is what the
/// baseline tools must keep resident (Table IV).
inline std::size_t csr_resident_bytes(std::uint64_t n, std::uint64_t edges) {
  return (n + 1) * sizeof(std::uint64_t) +
         2 * edges * sizeof(std::uint32_t);
}

/// Unencoded character-comparison complement oracle: Pauli ops stored one
/// byte each, anticommutation by per-position comparison. This is the
/// paper's pre-encoding CPU baseline (§IV-A reports 1.4-2.0x from the bit
/// encoding) and the "CPU only" configuration of Table V.
class NaiveComplementOracle {
 public:
  explicit NaiveComplementOracle(const pauli::PauliSet& set)
      : num_qubits_(set.num_qubits()), n_(set.size()) {
    ops_.reserve(n_ * num_qubits_);
    for (std::size_t i = 0; i < n_; ++i) {
      const pauli::PauliString s = set.string(i);
      for (std::size_t q = 0; q < num_qubits_; ++q) {
        ops_.push_back(static_cast<std::uint8_t>(s.op(q)));
      }
    }
  }

  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(n_);
  }

  bool edge(std::uint32_t u, std::uint32_t v) const {
    if (u == v) return false;
    const std::uint8_t* a = ops_.data() + std::size_t{u} * num_qubits_;
    const std::uint8_t* b = ops_.data() + std::size_t{v} * num_qubits_;
    unsigned mismatches = 0;
    for (std::size_t q = 0; q < num_qubits_; ++q) {
      // Distinct non-identity operators anticommute (Eq. 5).
      mismatches += (a[q] != 0 && b[q] != 0 && a[q] != b[q]) ? 1u : 0u;
    }
    return (mismatches & 1u) == 0;  // complement: NOT anticommute
  }

 private:
  std::size_t num_qubits_;
  std::size_t n_;
  std::vector<std::uint8_t> ops_;
};

/// The paper's 3-bit kernel as a complement oracle: every string held as
/// its inverse-one-hot words (encode3), anticommutation as the parity of
/// popcount(a & b) (anticommute3, §IV-A). The library keeps only the
/// symplectic planes resident, so this oracle is the encoding ablation's
/// 3-bit side; it must color bit-identically to the packed oracle.
class InverseOneHotComplementOracle {
 public:
  explicit InverseOneHotComplementOracle(const pauli::PauliSet& set)
      : words_(pauli::words_per_string3(set.num_qubits())),
        n_(set.size()),
        codes_(n_ * words_) {
    for (std::size_t i = 0; i < n_; ++i) {
      pauli::encode3(set.string(i), codes_.data() + i * words_);
    }
  }

  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(n_);
  }

  bool edge(std::uint32_t u, std::uint32_t v) const {
    return u != v && !pauli::anticommute3(codes_.data() + u * words_,
                                          codes_.data() + v * words_, words_);
  }

 private:
  std::size_t words_;
  std::size_t n_;
  std::vector<std::uint64_t> codes_;
};

/// Appends one raw JSON-lines row to stdout and (when PICASSO_BENCH_JSON
/// names a file) to the bench artifact CI uploads as BENCH_pr.json.
inline void emit_json_line(const std::string& row) {
  std::printf("JSONL %s\n", row.c_str());
  if (const char* path = std::getenv("PICASSO_BENCH_JSON")) {
    std::ofstream out(path, std::ios::app);
    if (out) out << row << "\n";
  }
}

/// Extra-fields fragment carrying the solve's deterministic work counters
/// (SessionBuilder::telemetry(Counters), SolveReport::telemetry). Counter
/// totals from single-threaded runs are a pure function of (dataset, seed,
/// params) — plus the host ISA for the avx2/scalar kernel split, whose sum
/// is what the CI gate compares exactly (0% tolerance).
inline std::string counters_field(const obs::CounterTotals& totals) {
  return "\"counters\":" + totals.to_json();
}

/// Machine-readable memory record, one JSON-lines row keyed (bench, name).
/// CI gates merges on peak-memory regressions in these against a checked-in
/// baseline (scripts/compare_bench.py). Records meant for the gate
/// must come from single-threaded runs: tracked logical bytes are then a
/// pure function of (dataset, seed, params) and compare bit-for-bit across
/// machines.
inline void emit_json_record(const std::string& bench, const std::string& name,
                             const core::MemoryReport& report,
                             const std::string& extra_fields = "") {
  std::string row = "{\"bench\":\"" + bench + "\",\"name\":\"" + name +
                    "\",\"peak_tracked_bytes\":" +
                    std::to_string(report.peak_tracked_bytes) +
                    ",\"within_budget\":" +
                    (report.within_budget() ? "true" : "false");
  if (!extra_fields.empty()) row += "," + extra_fields;
  row += ",\"report\":" + report.to_json() + "}";
  emit_json_line(row);
}

/// Stamps a standard header on every bench so outputs are self-describing.
inline void print_banner(const char* exhibit, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", exhibit, description);
  std::printf("(shape reproduction at container scale; see EXPERIMENTS.md)\n");
  if (quick_mode()) std::printf("[PICASSO_BENCH_SCALE=quick]\n");
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace picasso::bench
