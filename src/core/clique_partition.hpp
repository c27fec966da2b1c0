#pragma once
// Application layer: unitary partitioning of Pauli strings (§II).
//
// A valid coloring of the complement graph G' puts two strings in the same
// color class only if they anticommute, so every color class is a clique of
// the anticommutation graph G — i.e., a set of Pauli strings that can be
// combined into a single unitary (Eq. (1)/(2) of the paper). This module
// turns a Picasso coloring into those groups, verifies the pairwise
// anticommutation invariant, and reports the application-level metrics
// (compression ratio, coefficient norms).

#include <cstdint>
#include <string>
#include <vector>

#include "core/picasso.hpp"
#include "pauli/pauli_set.hpp"

namespace picasso::core {

/// Which pairwise relation defines a valid group (clique). The paper's
/// contribution targets Unitary (anticommuting) grouping; the two
/// commutativity modes are the related-work measurement-grouping schemes of
/// §III, exposed here because the identical coloring machinery serves all
/// three — only the oracle changes.
enum class GroupingMode {
  Unitary,            // pairwise anticommute  -> compact unitaries (Eq. 1)
  GeneralCommute,     // pairwise commute      -> simultaneous measurement
  QubitWiseCommute,   // pairwise QWC          -> measurement w/o basis change
};

const char* to_string(GroupingMode m) noexcept;

/// The pairwise relation of a mode, as a predicate over set indices.
bool pair_satisfies(const pauli::PauliSet& set, GroupingMode mode,
                    std::uint32_t a, std::uint32_t b);

struct UnitaryGroup {
  std::vector<std::uint32_t> members;  // indices into the PauliSet
  /// sqrt(Σ p_i^2) over members — the natural scale u_i of the grouped
  /// unitary in Eq. (1).
  double coefficient_norm = 0.0;
};

struct PartitionResult {
  std::vector<UnitaryGroup> groups;
  PicassoResult coloring;

  std::size_t num_groups() const { return groups.size(); }

  /// n / c — how many Pauli strings collapse into one unitary on average
  /// (the paper's H2 example compresses 17 strings into 9 unitaries).
  double compression_ratio() const {
    return groups.empty() ? 0.0
                          : static_cast<double>(coloring.colors.size()) /
                                static_cast<double>(groups.size());
  }
};

/// End-to-end: color the mode's coloring graph (Unitary: the complement of
/// the anticommute graph, exactly the paper's pipeline) with Picasso and
/// split the set into groups (one per color class, ordered by first member).
/// Colors with the edge-free fused engine, which gives the materialized
/// engine's coloring.
PartitionResult partition_pauli_strings(const pauli::PauliSet& set,
                                        const PicassoParams& params = {},
                                        GroupingMode mode = GroupingMode::Unitary);

/// Builds groups from any per-vertex color assignment, one per color
/// class, ordered by first member. Throws std::invalid_argument unless
/// there is one color per string of `set`.
std::vector<UnitaryGroup> groups_from_coloring(
    const pauli::PauliSet& set, const std::vector<std::uint32_t>& colors);

/// Checks the partition invariant: groups are disjoint, cover the whole
/// set, and every pair inside a group satisfies the mode's relation
/// (Unitary: anticommutes). Returns an empty string when valid, else a
/// description of the first violation.
std::string verify_partition(const pauli::PauliSet& set,
                             const std::vector<UnitaryGroup>& groups,
                             GroupingMode mode = GroupingMode::Unitary);

}  // namespace picasso::core
