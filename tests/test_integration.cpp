// Cross-module integration tests: the full quantum workflow (molecule ->
// Jordan-Wigner -> Pauli set -> Picasso -> unitary partition), memory-story
// sanity (Picasso's footprint vs explicit representations), and agreement
// between all execution paths on a real dataset.

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "coloring/greedy.hpp"
#include "coloring/verify.hpp"
#include "core/clique_partition.hpp"
#include "core/picasso.hpp"
#include "graph/oracles.hpp"
#include "pauli/datasets.hpp"
#include "pauli/molecule.hpp"

namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pc = picasso::coloring;
namespace pcore = picasso::core;
namespace papi = picasso::api;

namespace {

const pp::PauliSet& h4_set() {
  static const pp::PauliSet set =
      pp::pauli_set_from_operator(pp::molecular_hamiltonian(
          {4, pp::Geometry::Chain1D, pp::Basis::STO3G, 1.4}));
  return set;
}

}  // namespace

TEST(Integration, FullQuantumWorkflowProducesVerifiedPartition) {
  const auto& set = h4_set();
  ASSERT_GT(set.size(), 100u);

  pcore::PicassoParams params;
  params.palette_percent = 12.5;
  params.alpha = 2.0;
  params.seed = 1;
  const auto partition = pcore::partition_pauli_strings(set, params);

  const std::string violation = pcore::verify_partition(set, partition.groups);
  EXPECT_TRUE(violation.empty()) << violation;
  EXPECT_GT(partition.compression_ratio(), 2.0)
      << "grouping should compress the Pauli set substantially";
  EXPECT_EQ(partition.num_groups(), partition.coloring.num_colors);
}

TEST(Integration, PicassoMatchesExplicitGraphColoringValidity) {
  // Color through the implicit oracle, then validate against an explicitly
  // materialised complement graph — the two worlds must agree.
  const auto& set = h4_set();
  const pg::ComplementOracle oracle(set);
  const auto dense = pg::materialize_dense(oracle);

  const auto r = papi::Session::from_params({}).solve(papi::Problem::pauli(set)).result;
  EXPECT_TRUE(pc::is_valid_coloring(dense, r.colors));
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
}

TEST(Integration, AllExecutionPathsProduceTheSameColoring) {
  const auto& set = h4_set();
  pcore::PicassoParams params;
  params.seed = 5;

  const auto indexed =
      pcore::solve_pauli(set, params, pcore::ConflictKernel::Indexed);
  const auto reference =
      pcore::solve_pauli(set, params, pcore::ConflictKernel::Reference);
  EXPECT_EQ(indexed.colors, reference.colors);

  // A forced InMemory session runs the same engine with the Auto kernel.
  const auto in_memory = papi::SessionBuilder()
                             .params(params)
                             .strategy(papi::ExecutionStrategy::InMemory)
                             .build()
                             .solve(papi::Problem::pauli(set))
                             .result;
  EXPECT_EQ(indexed.colors, in_memory.colors);

  // Auto plans the edge-free fused engine for an in-memory Pauli set.
  const auto fused =
      papi::Session::from_params(params).solve(papi::Problem::pauli(set));
  EXPECT_EQ(fused.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(indexed.colors, fused.result.colors);
}

TEST(Integration, PicassoPeakMemoryBeatsExplicitCsr) {
  // The paper's Table IV story: the baselines must hold the whole graph
  // (CSR at ~50% density), Picasso only per-iteration conflict structures.
  const auto& set = h4_set();
  const pg::ComplementOracle oracle(set);
  const auto csr = pg::materialize_csr(oracle);

  const auto r = papi::Session::from_params({}).solve(papi::Problem::pauli(set)).result;
  EXPECT_LT(r.peak_logical_bytes, csr.logical_bytes())
      << "Picasso peak " << r.peak_logical_bytes << " vs CSR "
      << csr.logical_bytes();
}

TEST(Integration, PicassoQualityIsWithinRangeOfGreedyBaselines) {
  // Aggressive Picasso should land within ~25% of the best sequential
  // greedy ordering on a real (small) molecule — Table III's shape.
  const auto& set = h4_set();
  const pg::ComplementOracle oracle(set);
  const auto dense = pg::materialize_dense(oracle);

  std::uint32_t best_greedy = 0xffffffffu;
  for (auto kind : {pc::OrderingKind::LargestFirst, pc::OrderingKind::SmallestLast,
                    pc::OrderingKind::DynamicLargestFirst,
                    pc::OrderingKind::IncidenceDegree}) {
    best_greedy = std::min(best_greedy, pc::greedy_color(dense, kind, 1).num_colors);
  }

  pcore::PicassoParams aggressive;
  aggressive.palette_percent = 3.0;
  aggressive.alpha = 30.0;
  const auto r = papi::Session::from_params(aggressive).solve(papi::Problem::pauli(set)).result;
  EXPECT_LT(r.num_colors,
            static_cast<std::uint32_t>(1.25 * static_cast<double>(best_greedy)))
      << "picasso " << r.num_colors << " vs best greedy " << best_greedy;
}

TEST(Integration, DatasetRegistrySmallEntriesAreColorable) {
  // Every small dataset goes through the full pipeline with verification.
  for (const auto& spec : pp::datasets_in_class(pp::SizeClass::Small)) {
    if (spec.molecule.num_atoms > 4) continue;  // keep CI time bounded
    const auto& set = pp::load_dataset(spec);
    pcore::PicassoParams params;
    params.seed = 2;
    const auto r = papi::Session::from_params(params).solve(papi::Problem::pauli(set)).result;
    const pg::ComplementOracle oracle(set);
    EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors)) << spec.name;
    EXPECT_LT(r.color_percent(), 50.0) << spec.name;
  }
}

TEST(Integration, HamiltonianCoefficientsFlowIntoGroups) {
  // Coefficient norms of the groups must account for all input weight:
  // sum of squared group norms == sum of squared input coefficients.
  const auto& set = h4_set();
  const auto partition = pcore::partition_pauli_strings(set, {});
  double group_weight = 0.0;
  for (const auto& g : partition.groups) {
    group_weight += g.coefficient_norm * g.coefficient_norm;
  }
  double input_weight = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    input_weight += set.coefficient(i) * set.coefficient(i);
  }
  EXPECT_NEAR(group_weight, input_weight, 1e-9 * input_weight);
}
