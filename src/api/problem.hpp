#pragma once
// Type-erased problem instances for the session front-end.
//
// A Problem is "something Picasso can color": an encoded Pauli set (owned
// or borrowed), a bit-packed Pauli set, an explicit CSR / dense graph, a
// .pset spill file (or an already-open ChunkedPauliReader), a graph file
// (MatrixMarket or edge-list, loaded eagerly), a replayable edge stream, or
// any adjacency oracle. Session::plan() reads only the problem's kind and
// size, so strategy selection is uniform across every input shape, and
// Session::solve() dispatches to the core engine the plan names.
//
// Ownership: the `Problem::x(T&&)` overloads take ownership (the payload
// moves into a shared_ptr, so Problem copies are cheap and solve_async is
// safe); the `Problem::x(const T&)` overloads borrow — the referent must
// outlive every solve, which is the natural contract for the migrated call
// sites that keep the input around anyway.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/error.hpp"
#include "graph/csr_graph.hpp"
#include "graph/dense_graph.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_stream.hpp"

namespace picasso::core {
class VectorEdgeStream;  // streaming.hpp; avoided here to keep includes acyclic
}

namespace picasso::api {

enum class ProblemKind {
  Pauli,        // encoded PauliSet (anticommutation complement is colored)
  PackedPauli,  // bit-packed symplectic records
  Csr,          // explicit CSR graph (includes loaded graph files)
  Dense,        // explicit dense bitset graph
  Oracle,       // any type-erased adjacency oracle
  EdgeStream,   // replayable edge enumeration (semi-streaming access model)
  SpillFile,    // .pset spill file on disk
  SpillReader,  // caller-managed ChunkedPauliReader
};

const char* to_string(ProblemKind kind) noexcept;

/// Type-erased borrowed adjacency oracle; satisfies graph::GraphOracle, so
/// it runs through the standard driver (one indirect call per edge query —
/// the generic escape hatch, not the fast path).
class OracleRef {
 public:
  template <graph::GraphOracle O>
    requires(!std::same_as<O, OracleRef>)
  explicit OracleRef(const O& oracle)
      : obj_(&oracle),
        num_vertices_(oracle.num_vertices()),
        edge_([](const void* p, graph::VertexId u, graph::VertexId v) {
          return static_cast<const O*>(p)->edge(u, v);
        }) {}

  graph::VertexId num_vertices() const noexcept { return num_vertices_; }
  bool edge(graph::VertexId u, graph::VertexId v) const {
    return edge_(obj_, u, v);
  }

 private:
  const void* obj_;
  graph::VertexId num_vertices_;
  bool (*edge_)(const void*, graph::VertexId, graph::VertexId);
};

/// Type-erased replayable edge source (the semi-streaming access model of
/// core/streaming.hpp): for_each_edge replays every undirected edge at
/// least once per call, in a deterministic order.
class EdgeSourceRef {
 public:
  using EmitFn = std::function<void(std::uint32_t, std::uint32_t)>;

  /// Borrows `source`; it must outlive every solve.
  template <typename Source>
    requires(!std::same_as<Source, EdgeSourceRef> &&
             requires(const Source& s) {
               s.for_each_edge([](std::uint32_t, std::uint32_t) {});
             })
  explicit EdgeSourceRef(const Source& source)
      : replay_([&source](const EmitFn& emit) {
          source.for_each_edge(
              [&emit](std::uint32_t u, std::uint32_t v) { emit(u, v); });
        }) {}

  /// Owning variant used by the file-backed factories.
  explicit EdgeSourceRef(std::function<void(const EmitFn&)> replay)
      : replay_(std::move(replay)) {}

  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    replay_([&fn](std::uint32_t u, std::uint32_t v) { fn(u, v); });
  }

 private:
  std::function<void(const EmitFn&)> replay_;
};

class Problem {
 public:
  // --- Pauli sets ---------------------------------------------------------
  static Problem pauli(pauli::PauliSet&& set);        // owning
  static Problem pauli(const pauli::PauliSet& set);    // borrowing
  static Problem packed(pauli::PackedPauliSet&& set);
  static Problem packed(const pauli::PackedPauliSet& set);

  // --- Explicit graphs ----------------------------------------------------
  static Problem csr(graph::CsrGraph&& g);
  static Problem csr(const graph::CsrGraph& g);
  static Problem dense(graph::DenseGraph&& g);
  static Problem dense(const graph::DenseGraph& g);

  // --- Files --------------------------------------------------------------
  /// Loads a MatrixMarket coordinate file eagerly into a CSR problem.
  /// Throws ApiError(IoError) when the file is missing or malformed.
  static Problem matrix_market(const std::string& path);
  /// Loads an "n m" edge-list file eagerly into a CSR problem.
  static Problem edge_list(const std::string& path);
  /// Either of the above, picked by extension (.mtx => MatrixMarket).
  static Problem graph_file(const std::string& path);
  /// A .pset spill file (pauli/pauli_stream.hpp format). The header is
  /// validated here; chunking is chosen by the session plan.
  static Problem pauli_spill(const std::string& path);

  // --- Streaming / oracle escape hatches ---------------------------------
  /// Borrows an already-open chunked spill reader (its chunk size wins).
  static Problem spill_reader(const pauli::ChunkedPauliReader& reader);
  /// Borrows any replayable edge source over `n` vertices.
  template <typename Source>
  static Problem edge_stream(std::uint32_t n, const Source& source) {
    return edge_stream_erased(n, EdgeSourceRef(source));
  }
  /// Re-reads an edge-list file every pass — the honest semi-streaming
  /// setting where the graph never resides in memory.
  static Problem edge_stream_file(const std::string& path);
  /// Borrows any adjacency oracle.
  template <graph::GraphOracle O>
  static Problem oracle(const O& o) {
    return oracle_erased(OracleRef(o));
  }

  // --- Introspection ------------------------------------------------------
  ProblemKind kind() const noexcept { return kind_; }
  std::uint32_t num_vertices() const noexcept { return num_vertices_; }
  /// Resident bytes of the encoded input (0 for borrowed oracles, streams
  /// and files) — what the plan weighs against the memory budget.
  std::size_t logical_bytes() const noexcept { return logical_bytes_; }
  /// Source path for file-backed problems ("" otherwise).
  const std::string& path() const noexcept { return path_; }

  // --- Payload access (used by Session::solve) ----------------------------
  const pauli::PauliSet& pauli_set() const { return *pauli_; }
  const pauli::PackedPauliSet& packed_set() const { return *packed_; }
  const graph::CsrGraph& csr_graph() const { return *csr_; }
  const graph::DenseGraph& dense_graph() const { return *dense_; }
  const OracleRef& oracle_ref() const { return *oracle_; }
  const EdgeSourceRef& edge_source() const { return *edges_; }
  const pauli::ChunkedPauliReader& reader() const { return *reader_; }

 private:
  Problem() = default;
  static Problem oracle_erased(OracleRef oracle);
  static Problem edge_stream_erased(std::uint32_t n, EdgeSourceRef source);

  ProblemKind kind_ = ProblemKind::Pauli;
  std::uint32_t num_vertices_ = 0;
  std::size_t logical_bytes_ = 0;
  std::string path_;

  // Exactly one payload is set, matching kind_. Borrowing factories store
  // a non-owning shared_ptr (no-op deleter).
  std::shared_ptr<const pauli::PauliSet> pauli_;
  std::shared_ptr<const pauli::PackedPauliSet> packed_;
  std::shared_ptr<const graph::CsrGraph> csr_;
  std::shared_ptr<const graph::DenseGraph> dense_;
  std::shared_ptr<const OracleRef> oracle_;
  std::shared_ptr<const EdgeSourceRef> edges_;
  std::shared_ptr<const pauli::ChunkedPauliReader> reader_;
};

}  // namespace picasso::api
