#include "core/clique_partition.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/solve_fused.hpp"

namespace picasso::core {

const char* to_string(GroupingMode m) noexcept {
  switch (m) {
    case GroupingMode::Unitary: return "unitary (anticommute)";
    case GroupingMode::GeneralCommute: return "general-commute";
    case GroupingMode::QubitWiseCommute: return "qubit-wise-commute";
  }
  return "?";
}

bool pair_satisfies(const pauli::PauliSet& set, GroupingMode mode,
                    std::uint32_t a, std::uint32_t b) {
  switch (mode) {
    case GroupingMode::Unitary:
      return set.anticommute(a, b);
    case GroupingMode::GeneralCommute:
      return !set.anticommute(a, b);
    case GroupingMode::QubitWiseCommute:
      return set.qubit_wise_commute(a, b);
  }
  return false;
}

std::vector<UnitaryGroup> groups_from_coloring(
    const pauli::PauliSet& set, const std::vector<std::uint32_t>& colors) {
  if (colors.size() != set.size()) {
    throw std::invalid_argument(
        "groups_from_coloring: " + std::to_string(colors.size()) +
        " colors for " + std::to_string(set.size()) + " strings");
  }
  // One walk in vertex order: a color's group is appended when its first
  // member shows up, so the groups come out ordered by smallest member.
  std::unordered_map<std::uint32_t, std::uint32_t> group_of;
  std::vector<UnitaryGroup> groups;
  for (std::uint32_t v = 0; v < colors.size(); ++v) {
    const auto [it, fresh] = group_of.try_emplace(
        colors[v], static_cast<std::uint32_t>(groups.size()));
    if (fresh) groups.emplace_back();
    UnitaryGroup& group = groups[it->second];
    group.members.push_back(v);
    const double p = set.coefficient(v);
    group.coefficient_norm += p * p;  // the squared norm until the end
  }
  for (UnitaryGroup& group : groups) {
    group.coefficient_norm = std::sqrt(group.coefficient_norm);
  }
  return groups;
}

PartitionResult partition_pauli_strings(const pauli::PauliSet& set,
                                        const PicassoParams& params,
                                        GroupingMode mode) {
  // The edge-free fused engine colors bit-identically to the materialized
  // one without holding the conflict CSR.
  PartitionResult result;
  switch (mode) {
    case GroupingMode::Unitary:
      result.coloring = solve_pauli_fused(set, params);
      break;
    case GroupingMode::GeneralCommute:
      // The coloring graph of commute-cliques is the anticommute graph.
      result.coloring = solve_fused(graph::AnticommuteOracle(set), params);
      break;
    case GroupingMode::QubitWiseCommute:
      result.coloring = solve_fused(graph::QwcComplementOracle(set), params);
      break;
  }
  result.groups = groups_from_coloring(set, result.coloring.colors);
  return result;
}

std::string verify_partition(const pauli::PauliSet& set,
                             const std::vector<UnitaryGroup>& groups,
                             GroupingMode mode) {
  std::vector<char> seen(set.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& members = groups[g].members;
    if (members.empty()) {
      return "group " + std::to_string(g) + " is empty";
    }
    for (std::uint32_t v : members) {
      if (v >= set.size()) {
        return "group " + std::to_string(g) + " has out-of-range member";
      }
      if (seen[v]) {
        return "vertex " + std::to_string(v) + " appears in two groups";
      }
      seen[v] = 1;
    }
    // Clique check in the anticommutation graph: singletons always valid.
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (!pair_satisfies(set, mode, members[i], members[j])) {
          return "group " + std::to_string(g) + ": strings " +
                 std::to_string(members[i]) + " and " +
                 std::to_string(members[j]) + " violate " +
                 std::string(to_string(mode));
        }
      }
    }
  }
  for (std::uint32_t v = 0; v < set.size(); ++v) {
    if (!seen[v]) return "vertex " + std::to_string(v) + " not covered";
  }
  return {};
}

}  // namespace picasso::core
