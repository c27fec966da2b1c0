// Tests for the unitary-partitioning application layer (§II): color classes
// as anticommuting cliques, the verifier's violation detection, and the
// paper's H2 example.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/clique_partition.hpp"
#include "graph/oracles.hpp"
#include "pauli/datasets.hpp"

namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;

namespace {

pp::PauliSet small_random_set(std::size_t count, std::size_t qubits,
                              std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  std::vector<double> coefs;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
    coefs.push_back(rng.uniform() + 0.1);
  }
  return pp::PauliSet(strings, coefs);
}

}  // namespace

TEST(Partition, Fig1CompressesSeventeenStringsToNineGroups) {
  const auto set = pp::fig1_h2_set();
  pcore::PicassoParams params;
  params.palette_percent = 40.0;
  params.alpha = 30.0;
  params.seed = 3;
  const auto result = pcore::partition_pauli_strings(set, params);
  EXPECT_TRUE(pcore::verify_partition(set, result.groups).empty());
  EXPECT_GE(result.num_groups(), 9u);
  EXPECT_LE(result.num_groups(), 12u);
  EXPECT_GT(result.compression_ratio(), 1.0);
}

TEST(Partition, GroupsFromColoringRespectsClasses) {
  const auto set = small_random_set(30, 5, 1);
  // Hand-build a trivial coloring: everyone its own group.
  std::vector<std::uint32_t> colors(30);
  for (std::uint32_t i = 0; i < 30; ++i) colors[i] = i;
  const auto groups = pcore::groups_from_coloring(set, colors);
  EXPECT_EQ(groups.size(), 30u);
  EXPECT_TRUE(pcore::verify_partition(set, groups).empty());
  for (const auto& g : groups) {
    EXPECT_EQ(g.members.size(), 1u);
    EXPECT_NEAR(g.coefficient_norm,
                std::abs(set.coefficient(g.members[0])), 1e-12);
  }
}

TEST(Partition, CoefficientNormIsEuclidean) {
  const pp::PauliSet set({pp::PauliString::parse("XX"),
                          pp::PauliString::parse("YY")},
                         {3.0, 4.0});
  // XX and YY anticommute? mismatches at 2 positions -> even -> commute.
  // Use one group per string to avoid the clique constraint.
  const auto groups = pcore::groups_from_coloring(set, {0, 1});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_DOUBLE_EQ(groups[0].coefficient_norm, 3.0);
  EXPECT_DOUBLE_EQ(groups[1].coefficient_norm, 4.0);
  // And a genuine 2-element group: XI vs YI anticommute (one mismatch).
  const pp::PauliSet pair({pp::PauliString::parse("XI"),
                           pp::PauliString::parse("YI")},
                          {3.0, 4.0});
  const auto merged = pcore::groups_from_coloring(pair, {0, 0});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].coefficient_norm, 5.0);
  EXPECT_TRUE(pcore::verify_partition(pair, merged).empty());
}

// Groups come out in first-member order, whatever the color values: color 3
// owns vertex 0, so its group leads although 0 and 1 are smaller colors.
TEST(Partition, GroupsFollowFirstMemberNotColorValue) {
  const pp::PauliSet set({pp::PauliString::parse("XI"),
                          pp::PauliString::parse("ZI"),
                          pp::PauliString::parse("YI"),
                          pp::PauliString::parse("IX")},
                         {1.0, 2.0, 3.0, 4.0});
  const auto groups = pcore::groups_from_coloring(set, {3, 1, 3, 0});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(groups[1].members, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(groups[2].members, (std::vector<std::uint32_t>{3}));
  EXPECT_DOUBLE_EQ(groups[0].coefficient_norm, std::sqrt(10.0));
  EXPECT_DOUBLE_EQ(groups[1].coefficient_norm, 2.0);
  EXPECT_DOUBLE_EQ(groups[2].coefficient_norm, 4.0);
}

TEST(Partition, GroupsFromColoringRejectsLengthMismatch) {
  const pp::PauliSet set({pp::PauliString::parse("XI"),
                          pp::PauliString::parse("YI")});
  EXPECT_THROW(pcore::groups_from_coloring(set, {0, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW(pcore::groups_from_coloring(set, {0}), std::invalid_argument);
}

TEST(Partition, VerifierCatchesNonAnticommutingGroup) {
  // XX and YY commute: grouping them must be rejected.
  const pp::PauliSet set({pp::PauliString::parse("XX"),
                          pp::PauliString::parse("YY")});
  pcore::UnitaryGroup group;
  group.members = {0, 1};
  const auto message = pcore::verify_partition(set, {group});
  EXPECT_NE(message.find("violate unitary"), std::string::npos);
}

TEST(Partition, VerifierCatchesCoverageViolations) {
  const auto set = small_random_set(4, 3, 2);
  pcore::UnitaryGroup g0;
  g0.members = {0};
  pcore::UnitaryGroup g1;
  g1.members = {1, 1};  // duplicate
  EXPECT_NE(pcore::verify_partition(set, {g0, g1}), "");
  pcore::UnitaryGroup g2;
  g2.members = {1};
  // vertices 2, 3 missing:
  EXPECT_NE(pcore::verify_partition(set, {g0, g2}).find("not covered"),
            std::string::npos);
  pcore::UnitaryGroup empty;
  EXPECT_NE(pcore::verify_partition(set, {empty}).find("empty"),
            std::string::npos);
  pcore::UnitaryGroup oob;
  oob.members = {99};
  EXPECT_NE(pcore::verify_partition(set, {oob}).find("out-of-range"),
            std::string::npos);
}

TEST(Partition, EndToEndOnRandomSetsAcrossSeeds) {
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    const auto set = small_random_set(120, 6, seed);
    pcore::PicassoParams params;
    params.seed = seed;
    params.palette_percent = 15.0;
    params.alpha = 3.0;
    const auto result = pcore::partition_pauli_strings(set, params);
    EXPECT_TRUE(pcore::verify_partition(set, result.groups).empty())
        << "seed " << seed << ": "
        << pcore::verify_partition(set, result.groups);
    EXPECT_EQ(result.num_groups(), result.coloring.num_colors);
    EXPECT_NEAR(result.compression_ratio(),
                static_cast<double>(set.size()) /
                    static_cast<double>(result.num_groups()),
                1e-12);
  }
}

TEST(Partition, IdentityStringLandsInItsOwnGroupOrAlone) {
  // The identity commutes with everything, so in any valid partition its
  // group must be a singleton.
  const auto set = pp::fig1_h2_set();  // string 0 is IIII
  pcore::PicassoParams params;
  params.seed = 11;
  params.palette_percent = 40.0;
  params.alpha = 10.0;
  const auto result = pcore::partition_pauli_strings(set, params);
  ASSERT_TRUE(pcore::verify_partition(set, result.groups).empty());
  for (const auto& g : result.groups) {
    if (std::find(g.members.begin(), g.members.end(), 0u) != g.members.end()) {
      EXPECT_EQ(g.members.size(), 1u);
    }
  }
}

// partition_pauli_strings colors edge-free; its groups are exactly those of
// the materialized engine (paper Algorithm 1) over the same mode's oracle,
// in every grouping mode.
TEST(Partition, FusedGroupsMatchTheMaterializedEngineInEveryMode) {
  const auto set = small_random_set(300, 8, 21);
  pcore::PicassoParams params;
  params.seed = 21;
  for (const auto mode :
       {pcore::GroupingMode::Unitary, pcore::GroupingMode::GeneralCommute,
        pcore::GroupingMode::QubitWiseCommute}) {
    pcore::PicassoResult reference;
    switch (mode) {
      case pcore::GroupingMode::Unitary:
        reference = pcore::solve_pauli(set, params);
        break;
      case pcore::GroupingMode::GeneralCommute:
        reference = pcore::solve_oracle(pg::AnticommuteOracle(set), params);
        break;
      case pcore::GroupingMode::QubitWiseCommute:
        reference = pcore::solve_oracle(pg::QwcComplementOracle(set), params);
        break;
    }
    const auto expected = pcore::groups_from_coloring(set, reference.colors);
    const auto result = pcore::partition_pauli_strings(set, params, mode);
    ASSERT_EQ(result.groups.size(), expected.size()) << to_string(mode);
    for (std::size_t g = 0; g < expected.size(); ++g) {
      EXPECT_EQ(result.groups[g].members, expected[g].members)
          << to_string(mode) << " group " << g;
    }
    EXPECT_TRUE(pcore::verify_partition(set, result.groups, mode).empty());
  }
}
