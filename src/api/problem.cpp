#include "api/problem.hpp"

#include <utility>

#include "core/streaming.hpp"
#include "graph/graph_io.hpp"

namespace picasso::api {

namespace {

/// Non-owning shared_ptr for the borrowing factories.
template <typename T>
std::shared_ptr<const T> borrow(const T& ref) {
  return std::shared_ptr<const T>(&ref, [](const T*) {});
}

template <typename Fn>
auto wrap_io(const char* field, const std::string& path, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    throw ApiError(ErrorCode::IoError, field, path + ": " + e.what());
  }
}

}  // namespace

const char* to_string(ProblemKind kind) noexcept {
  switch (kind) {
    case ProblemKind::Pauli: return "pauli";
    case ProblemKind::PackedPauli: return "packed-pauli";
    case ProblemKind::Csr: return "csr";
    case ProblemKind::Dense: return "dense";
    case ProblemKind::Oracle: return "oracle";
    case ProblemKind::EdgeStream: return "edge-stream";
    case ProblemKind::SpillFile: return "spill-file";
    case ProblemKind::SpillReader: return "spill-reader";
  }
  return "?";
}

Problem Problem::pauli(pauli::PauliSet&& set) {
  Problem p;
  p.kind_ = ProblemKind::Pauli;
  p.pauli_ = std::make_shared<const pauli::PauliSet>(std::move(set));
  p.num_vertices_ = static_cast<std::uint32_t>(p.pauli_->size());
  p.logical_bytes_ = p.pauli_->logical_bytes();
  return p;
}

Problem Problem::pauli(const pauli::PauliSet& set) {
  Problem p;
  p.kind_ = ProblemKind::Pauli;
  p.pauli_ = borrow(set);
  p.num_vertices_ = static_cast<std::uint32_t>(set.size());
  p.logical_bytes_ = set.logical_bytes();
  return p;
}

Problem Problem::packed(pauli::PackedPauliSet&& set) {
  Problem p;
  p.kind_ = ProblemKind::PackedPauli;
  p.packed_ = std::make_shared<const pauli::PackedPauliSet>(std::move(set));
  p.num_vertices_ = static_cast<std::uint32_t>(p.packed_->size());
  p.logical_bytes_ = p.packed_->logical_bytes();
  return p;
}

Problem Problem::packed(const pauli::PackedPauliSet& set) {
  Problem p;
  p.kind_ = ProblemKind::PackedPauli;
  p.packed_ = borrow(set);
  p.num_vertices_ = static_cast<std::uint32_t>(set.size());
  p.logical_bytes_ = set.logical_bytes();
  return p;
}

Problem Problem::csr(graph::CsrGraph&& g) {
  Problem p;
  p.kind_ = ProblemKind::Csr;
  p.csr_ = std::make_shared<const graph::CsrGraph>(std::move(g));
  p.num_vertices_ = p.csr_->num_vertices();
  p.logical_bytes_ = p.csr_->logical_bytes();
  return p;
}

Problem Problem::csr(const graph::CsrGraph& g) {
  Problem p;
  p.kind_ = ProblemKind::Csr;
  p.csr_ = borrow(g);
  p.num_vertices_ = g.num_vertices();
  p.logical_bytes_ = g.logical_bytes();
  return p;
}

Problem Problem::dense(graph::DenseGraph&& g) {
  Problem p;
  p.kind_ = ProblemKind::Dense;
  p.dense_ = std::make_shared<const graph::DenseGraph>(std::move(g));
  p.num_vertices_ = p.dense_->num_vertices();
  p.logical_bytes_ = p.dense_->logical_bytes();
  return p;
}

Problem Problem::dense(const graph::DenseGraph& g) {
  Problem p;
  p.kind_ = ProblemKind::Dense;
  p.dense_ = borrow(g);
  p.num_vertices_ = g.num_vertices();
  p.logical_bytes_ = g.logical_bytes();
  return p;
}

Problem Problem::matrix_market(const std::string& path) {
  Problem p = wrap_io("matrix_market", path, [&] {
    return Problem::csr(graph::read_matrix_market_file(path));
  });
  p.path_ = path;
  return p;
}

Problem Problem::edge_list(const std::string& path) {
  Problem p = wrap_io("edge_list", path, [&] {
    return Problem::csr(graph::read_edge_list_file(path));
  });
  p.path_ = path;
  return p;
}

Problem Problem::graph_file(const std::string& path) {
  return graph::is_matrix_market_path(path) ? matrix_market(path)
                                            : edge_list(path);
}

Problem Problem::pauli_spill(const std::string& path) {
  Problem p;
  p.kind_ = ProblemKind::SpillFile;
  p.path_ = path;
  // Validate the header now (eager, structured error); the solve opens its
  // own reader with the planned chunk size.
  wrap_io("pauli_spill", path, [&] {
    const pauli::ChunkedPauliReader header(path, 1);
    p.num_vertices_ = static_cast<std::uint32_t>(header.num_strings());
    p.logical_bytes_ =
        header.num_strings() * pauli::pset_record_bytes(header.num_qubits());
    return 0;
  });
  return p;
}

Problem Problem::spill_reader(const pauli::ChunkedPauliReader& reader) {
  Problem p;
  p.kind_ = ProblemKind::SpillReader;
  p.reader_ = borrow(reader);
  p.path_ = reader.path();
  p.num_vertices_ = static_cast<std::uint32_t>(reader.num_strings());
  p.logical_bytes_ =
      reader.num_strings() * pauli::pset_record_bytes(reader.num_qubits());
  return p;
}

Problem Problem::edge_stream_file(const std::string& path) {
  const auto stream = wrap_io("edge_stream_file", path, [&] {
    return std::make_shared<const core::FileEdgeStream>(path);
  });
  Problem p;
  p.kind_ = ProblemKind::EdgeStream;
  p.path_ = path;
  p.num_vertices_ = stream->num_vertices();
  // The replay closure keeps the FileEdgeStream alive for the Problem's
  // lifetime; only the file handle is transient.
  p.edges_ = std::make_shared<const EdgeSourceRef>(
      EdgeSourceRef([stream](const EdgeSourceRef::EmitFn& emit) {
        stream->for_each_edge(
            [&emit](std::uint32_t u, std::uint32_t v) { emit(u, v); });
      }));
  return p;
}

Problem Problem::oracle_erased(OracleRef oracle) {
  Problem p;
  p.kind_ = ProblemKind::Oracle;
  p.num_vertices_ = oracle.num_vertices();
  p.oracle_ = std::make_shared<const OracleRef>(oracle);
  return p;
}

Problem Problem::edge_stream_erased(std::uint32_t n, EdgeSourceRef source) {
  Problem p;
  p.kind_ = ProblemKind::EdgeStream;
  p.num_vertices_ = n;
  p.edges_ = std::make_shared<const EdgeSourceRef>(std::move(source));
  return p;
}

}  // namespace picasso::api
