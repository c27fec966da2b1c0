#pragma once
// Graph adjacency oracles.
//
// Picasso never loads the graph it colors: every algorithm in src/core is
// written against an *oracle* — anything exposing `num_vertices()` and
// `edge(u, v)`. For the quantum application the oracle is the complement of
// the anticommutation relation, computed on the fly from the encoded Pauli
// strings (§IV-A). Explicit CSR / dense-bitset graphs satisfy the same
// concept, which is how the unit tests cross-check the implicit and explicit
// paths, and how Picasso doubles as a generic memory-efficient colorer.

#include <concepts>
#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/dense_graph.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"

namespace picasso::graph {

template <typename T>
concept GraphOracle = requires(const T& g, VertexId u, VertexId v) {
  { g.num_vertices() } -> std::convertible_to<VertexId>;
  { g.edge(u, v) } -> std::convertible_to<bool>;
};

/// Oracle over an explicit CSR graph (binary search per query).
class CsrOracle {
 public:
  explicit CsrOracle(const CsrGraph& g) : g_(&g) {}
  VertexId num_vertices() const { return g_->num_vertices(); }
  bool edge(VertexId u, VertexId v) const { return g_->has_edge(u, v); }

 private:
  const CsrGraph* g_;
};

/// Oracle over an explicit dense bitset graph (O(1) per query).
class DenseOracle {
 public:
  explicit DenseOracle(const DenseGraph& g) : g_(&g) {}
  VertexId num_vertices() const { return g_->num_vertices(); }
  bool edge(VertexId u, VertexId v) const { return g_->has_edge(u, v); }

 private:
  const DenseGraph* g_;
};

/// The anticommutation graph G of a Pauli set: edge ⇔ strings anticommute.
/// Cliques of G are valid unitary groups (§II-B).
class AnticommuteOracle {
 public:
  explicit AnticommuteOracle(const pauli::PauliSet& set) : set_(&set) {}
  VertexId num_vertices() const {
    return static_cast<VertexId>(set_->size());
  }
  bool edge(VertexId u, VertexId v) const { return set_->anticommute(u, v); }

 private:
  const pauli::PauliSet* set_;
};

/// The complement graph G' that Picasso colors: edge ⇔ NOT anticommute
/// (u != v). This is the ~50%-dense graph of the paper, and it is never
/// materialised — each query is a handful of AND+popcount instructions.
class ComplementOracle {
 public:
  explicit ComplementOracle(const pauli::PauliSet& set) : set_(&set) {}
  VertexId num_vertices() const {
    return static_cast<VertexId>(set_->size());
  }
  bool edge(VertexId u, VertexId v) const {
    return u != v && !set_->anticommute(u, v);
  }

 private:
  const pauli::PauliSet* set_;
};

/// Qubit-wise commutativity graph: edge ⇔ strings qubit-wise commute.
/// Cliques are QWC measurement groups (the grouping scheme of §III's
/// related work that needs no basis-change circuit before measurement).
class QwcOracle {
 public:
  explicit QwcOracle(const pauli::PauliSet& set) : set_(&set) {}
  VertexId num_vertices() const {
    return static_cast<VertexId>(set_->size());
  }
  bool edge(VertexId u, VertexId v) const {
    return u != v && set_->qubit_wise_commute(u, v);
  }

 private:
  const pauli::PauliSet* set_;
};

/// Complement of the QWC graph — what Picasso colors when grouping by
/// qubit-wise commutativity. Much denser than the anticommute complement
/// (QWC is a far stricter relation), so groups are smaller.
class QwcComplementOracle {
 public:
  explicit QwcComplementOracle(const pauli::PauliSet& set) : set_(&set) {}
  VertexId num_vertices() const {
    return static_cast<VertexId>(set_->size());
  }
  bool edge(VertexId u, VertexId v) const {
    return u != v && !set_->qubit_wise_commute(u, v);
  }

 private:
  const pauli::PauliSet* set_;
};

namespace detail {

/// Shared body of the packed oracles' edge_block: swap u's planes into a
/// per-thread scratch, run the block kernel, then turn the anticommute
/// bits into edge answers — inverted for the complement relation, plus the
/// self-edge guard.
inline void packed_edge_block(const pauli::PackedView& view,
                              pauli::AnticommuteBlockFn kernel, VertexId u,
                              const VertexId* vs, std::size_t count,
                              std::uint8_t* out, bool complement) {
  thread_local std::vector<std::uint64_t> swapped;
  swapped.resize(2 * view.words);
  pauli::make_swapped_record(view.record(u), view.words, swapped.data());
  kernel(swapped.data(), view.data, view.words, vs, count, out);
  for (std::size_t k = 0; k < count; ++k) {
    const bool anti = out[k] != 0;
    out[k] = static_cast<std::uint8_t>(vs[k] != u &&
                                       (complement ? !anti : anti));
  }
}

}  // namespace detail

/// Complement oracle over the bit-packed symplectic representation — the
/// SIMD-capable backend of the pluggable conflict-oracle interface
/// (core/conflict_oracle.hpp). Answers the same relation as
/// ComplementOracle bit-for-bit, but adds `edge_block`: one vertex against
/// a batch of candidates through a runtime-dispatched kernel (AVX2 when the
/// CPU has it, portable scalar otherwise; pauli/pauli_packed.hpp). The view
/// borrows — from a PackedPauliSet or straight from PauliSet::packed_view()
/// with zero extra resident bytes.
class PackedComplementOracle {
 public:
  explicit PackedComplementOracle(
      pauli::PackedView view, pauli::SimdLevel simd = pauli::SimdLevel::Auto)
      : view_(view),
        simd_(pauli::resolve_simd_level(simd)),
        kernel_(pauli::resolve_block_kernel(view.words, simd_)) {}
  explicit PackedComplementOracle(
      const pauli::PackedPauliSet& set,
      pauli::SimdLevel simd = pauli::SimdLevel::Auto)
      : PackedComplementOracle(set.view(), simd) {}

  VertexId num_vertices() const { return static_cast<VertexId>(view_.size); }
  pauli::SimdLevel simd_level() const noexcept { return simd_; }

  bool edge(VertexId u, VertexId v) const {
    return u != v && !pauli::anticommute_record_scalar(
                         view_.record(u), view_.record(v), view_.words);
  }

  /// out[k] = edge(u, vs[k]) for k in [0, count) — the blocked pair-scan's
  /// hot call.
  void edge_block(VertexId u, const VertexId* vs, std::size_t count,
                  std::uint8_t* out) const {
    detail::packed_edge_block(view_, kernel_, u, vs, count, out,
                              /*complement=*/true);
  }

 private:
  pauli::PackedView view_;
  pauli::SimdLevel simd_;
  pauli::AnticommuteBlockFn kernel_;
};

/// Packed twin of AnticommuteOracle (edge ⇔ strings anticommute), with the
/// same batched interface.
class PackedAnticommuteOracle {
 public:
  explicit PackedAnticommuteOracle(
      pauli::PackedView view, pauli::SimdLevel simd = pauli::SimdLevel::Auto)
      : view_(view),
        simd_(pauli::resolve_simd_level(simd)),
        kernel_(pauli::resolve_block_kernel(view.words, simd_)) {}

  VertexId num_vertices() const { return static_cast<VertexId>(view_.size); }
  pauli::SimdLevel simd_level() const noexcept { return simd_; }

  bool edge(VertexId u, VertexId v) const {
    return u != v && pauli::anticommute_record_scalar(
                         view_.record(u), view_.record(v), view_.words);
  }

  void edge_block(VertexId u, const VertexId* vs, std::size_t count,
                  std::uint8_t* out) const {
    detail::packed_edge_block(view_, kernel_, u, vs, count, out,
                              /*complement=*/false);
  }

 private:
  pauli::PackedView view_;
  pauli::SimdLevel simd_;
  pauli::AnticommuteBlockFn kernel_;
};

// Note the duality used throughout: two distinct Pauli strings either
// commute or anticommute, so the commute graph IS ComplementOracle and the
// coloring graph of general-commutativity grouping IS AnticommuteOracle —
// no further oracle types are needed for those modes.

/// Materialises any oracle into a dense bitset graph — what the baselines
/// must do before they can color (the memory cost Table IV quantifies).
template <GraphOracle Oracle>
DenseGraph materialize_dense(const Oracle& oracle) {
  const VertexId n = oracle.num_vertices();
  DenseGraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (oracle.edge(u, v)) g.add_edge(u, v);
    }
  }
  return g;
}

/// Materialises any oracle into CSR form.
template <GraphOracle Oracle>
CsrGraph materialize_csr(const Oracle& oracle) {
  const VertexId n = oracle.num_vertices();
  std::vector<std::uint64_t> counts(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (oracle.edge(u, v)) {
        ++counts[u];
        ++counts[v];
      }
    }
  }
  std::vector<std::uint64_t> offsets(n + 1);
  std::uint64_t running = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets[v] = running;
    running += counts[v];
  }
  offsets[n] = running;
  std::vector<VertexId> neighbors(running);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (oracle.edge(u, v)) {
        neighbors[cursor[u]++] = v;
        neighbors[cursor[v]++] = u;
      }
    }
  }
  return CsrGraph::from_csr(std::move(offsets), std::move(neighbors));
}

/// Exact undirected edge count of any oracle (O(n^2) queries).
template <GraphOracle Oracle>
std::uint64_t count_edges(const Oracle& oracle) {
  const VertexId n = oracle.num_vertices();
  std::uint64_t count = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      count += oracle.edge(u, v) ? 1 : 0;
    }
  }
  return count;
}

}  // namespace picasso::graph
