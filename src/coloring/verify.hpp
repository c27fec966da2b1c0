#pragma once
// Coloring validity checks. Every algorithm in the library — baselines and
// Picasso alike — is verified through these in tests and (cheaply) asserted
// in the benchmark harnesses.

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "coloring/adapters.hpp"
#include "graph/oracles.hpp"
#include "util/packed_colors.hpp"

namespace picasso::coloring {

/// All vertices colored and no edge monochromatic (explicit graphs).
template <ColorableGraph G>
bool is_valid_coloring(const G& g, std::span<const std::uint32_t> colors) {
  const VertexId n = g.num_vertices();
  if (colors.size() != n) return false;
  for (VertexId v = 0; v < n; ++v) {
    if (colors[v] == kNoColor) return false;
  }
  bool ok = true;
  for (VertexId v = 0; v < n && ok; ++v) {
    for_each_neighbor(g, v, [&](VertexId u) {
      if (colors[u] == colors[v]) ok = false;
    });
  }
  return ok;
}

/// Oracle version: O(n^2) pair scan — the ground-truth check for colorings
/// computed on graphs that were never materialised.
template <graph::GraphOracle Oracle>
bool is_valid_coloring_oracle(const Oracle& oracle,
                              std::span<const std::uint32_t> colors) {
  const VertexId n = oracle.num_vertices();
  if (colors.size() != n) return false;
  for (VertexId v = 0; v < n; ++v) {
    if (colors[v] == kNoColor) return false;
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (colors[u] == colors[v] && oracle.edge(u, v)) return false;
    }
  }
  return true;
}

/// Packed-color conveniences: a PackedColorArray has no contiguous uint32
/// storage, so unpack once and run the span checks. Constrained templates
/// (not plain overloads) so a std::vector argument still binds its span
/// overload unambiguously.
template <ColorableGraph G, std::same_as<util::PackedColorArray> P>
bool is_valid_coloring(const G& g, const P& colors) {
  const std::vector<std::uint32_t> unpacked = colors.to_vector();
  return is_valid_coloring(g, std::span<const std::uint32_t>(unpacked));
}

template <graph::GraphOracle Oracle,
          std::same_as<util::PackedColorArray> P>
bool is_valid_coloring_oracle(const Oracle& oracle, const P& colors) {
  const std::vector<std::uint32_t> unpacked = colors.to_vector();
  return is_valid_coloring_oracle(oracle,
                                  std::span<const std::uint32_t>(unpacked));
}

/// Number of distinct colors used (ignores kNoColor entries).
std::uint32_t count_colors(std::span<const std::uint32_t> colors);

/// Color-class size histogram, indexed by a dense re-numbering of the
/// colors in increasing value order.
std::vector<std::uint32_t> color_class_sizes(
    std::span<const std::uint32_t> colors);

}  // namespace picasso::coloring
