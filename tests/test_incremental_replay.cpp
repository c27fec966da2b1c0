// Determinism-replay gate for incremental coloring (integration tier).
//
// The contract under test (see core/incremental.hpp): the final coloring
// is a pure function of the concatenated record sequence and the
// (params, update-params) pair. It must not depend on
//   - how the sequence was split into update() calls,
//   - the runtime thread count,
//   - whether the store is in memory, budget-spilled, or chunk-forced
//     to disk,
//   - whether the state was seeded by update() from scratch or by a
//     solve_incremental() baseline,
//   - whether escalations (full prefix re-solves) fired along the way.
// Every run below must produce bit-identical colors to its reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "coloring/verify.hpp"
#include "graph/oracles.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;

namespace {

std::vector<pp::PauliString> random_strings(std::size_t count,
                                            std::size_t qubits,
                                            std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
  }
  return strings;
}

/// Record sequence with duplicates salted in: every eighth string repeats
/// an earlier one, so recoloring and fresh-color pressure both trigger.
std::vector<pp::PauliString> replay_workload(std::size_t count,
                                             std::size_t qubits,
                                             std::uint64_t seed) {
  auto strings = random_strings(count, qubits, seed);
  for (std::size_t i = 8; i < strings.size(); i += 8) {
    strings[i] = strings[i / 2];
  }
  return strings;
}

pp::PauliSet slice(const std::vector<pp::PauliString>& strings,
                   std::size_t begin, std::size_t end) {
  return pp::PauliSet(std::vector<pp::PauliString>(strings.begin() + begin,
                                                   strings.begin() + end));
}

/// One cell of the replay matrix.
struct ReplayConfig {
  std::string name;
  std::uint32_t threads = 1;
  std::size_t budget = 0;         // 0 = in-memory store
  std::size_t chunk_strings = 0;  // >0 forces a spilled store outright
};

std::vector<ReplayConfig> replay_matrix() {
  std::vector<ReplayConfig> configs;
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    for (std::size_t budget : {std::size_t{0}, std::size_t{64} << 20}) {
      configs.push_back({"t" + std::to_string(threads) +
                             (budget ? "/64MiB" : "/mem"),
                         threads, budget, 0});
    }
  }
  // Chunk-forced spill: tiny chunks exercise the cross-chunk probe paths
  // of the spilled prober regardless of any budget.
  configs.push_back({"t2/chunk16", 2, std::size_t{0}, 16});
  configs.push_back({"t8/chunk16", 8, std::size_t{0}, 16});
  return configs;
}

papi::Session make_session(const ReplayConfig& config,
                           pcore::UpdateParams update_params) {
  auto builder = papi::SessionBuilder()
                     .seed(11)
                     .update_params(update_params)
                     .runtime({.num_threads = config.threads});
  if (config.budget != 0) builder.memory_budget(config.budget);
  if (config.chunk_strings != 0) {
    builder.streaming({.chunk_strings = config.chunk_strings});
  }
  return builder.build();
}

/// Feeds `strings` to `session` as one update() per split segment and
/// returns the final coloring.
std::vector<std::uint32_t> run_splits(
    papi::Session& session, const std::vector<pp::PauliString>& strings,
    const std::vector<std::size_t>& splits, std::uint32_t* escalations = nullptr) {
  std::size_t begin = 0;
  papi::SolveReport report;
  for (std::size_t width : splits) {
    report = session.update(
        papi::UpdateDelta::pauli(slice(strings, begin, begin + width)));
    begin += width;
    if (escalations != nullptr) *escalations += report.update->escalations;
  }
  EXPECT_EQ(begin, strings.size());
  return report.result.colors;
}

std::vector<std::vector<std::size_t>> split_plans(std::size_t total) {
  std::vector<std::vector<std::size_t>> plans;
  plans.push_back({total});
  plans.push_back({1, total - 1});
  plans.push_back({total / 2, total - total / 2});
  plans.push_back({total / 3, total / 3, total - 2 * (total / 3)});
  std::vector<std::size_t> fine(total / 16, 16);
  fine.push_back(total - 16 * (total / 16));
  if (fine.back() == 0) fine.pop_back();
  plans.push_back(std::move(fine));
  return plans;
}

}  // namespace

// Scratch-built state: every (config, split) cell reproduces the serial
// in-memory one-shot coloring bit for bit.
TEST(IncrementalReplay, SplitsThreadsAndSpillAgree) {
  const auto strings = replay_workload(160, 12, 101);
  const pcore::UpdateParams update_params{.max_recolor = 4,
                                          .max_new_colors = 0};

  std::vector<std::uint32_t> reference;
  for (const auto& config : replay_matrix()) {
    for (const auto& plan : split_plans(strings.size())) {
      auto session = make_session(config, update_params);
      const auto colors = run_splits(session, strings, plan);
      ASSERT_EQ(colors.size(), strings.size());
      if (reference.empty()) {
        reference = colors;
        const pp::PauliSet all(strings);
        const pg::ComplementOracle oracle(all);
        ASSERT_TRUE(
            picasso::coloring::is_valid_coloring_oracle(oracle, reference));
      } else {
        EXPECT_EQ(colors, reference)
            << "diverged: " << config.name << " splits=" << plan.size();
      }
    }
  }
}

// Baseline-seeded state: solve_incremental() over a fixed prefix, then the
// remainder in varying splits. The baseline fused solve is itself
// schedule-invariant, so every cell must agree with the serial reference.
TEST(IncrementalReplay, FixedBaselineThenSplitsAgree) {
  const auto strings = replay_workload(140, 12, 202);
  const pcore::UpdateParams update_params{.max_recolor = 4,
                                          .max_new_colors = 0};
  constexpr std::size_t kBaseline = 60;
  const pp::PauliSet base = slice(strings, 0, kBaseline);
  const auto tail = std::vector<pp::PauliString>(strings.begin() + kBaseline,
                                                 strings.end());

  std::vector<std::uint32_t> reference;
  for (const auto& config : replay_matrix()) {
    for (const auto& plan : split_plans(tail.size())) {
      auto session = make_session(config, update_params);
      auto baseline = session.solve_incremental(papi::Problem::pauli(base));
      ASSERT_EQ(baseline.result.colors.size(), kBaseline);
      const auto colors = run_splits(session, tail, plan);
      ASSERT_EQ(colors.size(), strings.size());
      if (reference.empty()) {
        reference = colors;
        const pp::PauliSet all(strings);
        const pg::ComplementOracle oracle(all);
        ASSERT_TRUE(
            picasso::coloring::is_valid_coloring_oracle(oracle, reference));
      } else {
        EXPECT_EQ(colors, reference)
            << "diverged: " << config.name << " splits=" << plan.size();
      }
    }
  }
}

// Escalation fires at a vertex boundary determined by the record sequence
// alone, so even runs whose escalations land mid-update reproduce the
// one-shot coloring.
TEST(IncrementalReplay, EscalationPathIsScheduleInvariant) {
  auto strings = replay_workload(120, 10, 303);
  // Pile duplicates of one record so fresh colors accumulate quickly.
  for (std::size_t i = 30; i < strings.size(); i += 12) {
    strings[i] = strings[5];
  }
  const pcore::UpdateParams update_params{.max_recolor = 1,
                                          .max_new_colors = 2};

  std::vector<std::uint32_t> reference;
  std::uint32_t reference_escalations = 0;
  for (const auto& config : replay_matrix()) {
    for (const auto& plan : split_plans(strings.size())) {
      auto session = make_session(config, update_params);
      std::uint32_t escalations = 0;
      const auto colors = run_splits(session, strings, plan, &escalations);
      if (reference.empty()) {
        reference = colors;
        reference_escalations = escalations;
        const pp::PauliSet all(strings);
        const pg::ComplementOracle oracle(all);
        ASSERT_TRUE(
            picasso::coloring::is_valid_coloring_oracle(oracle, reference));
      } else {
        EXPECT_EQ(colors, reference)
            << "diverged: " << config.name << " splits=" << plan.size();
        EXPECT_EQ(escalations, reference_escalations)
            << "escalation count drifted: " << config.name;
      }
    }
  }
  EXPECT_GE(reference_escalations, 1u);
}
