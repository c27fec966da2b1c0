#include "graph/graph_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace picasso::graph {

namespace {

/// Count lines hold only non-negative integers. istream wraps "-1" into an
/// unsigned type without setting failbit, so a minus sign is rejected
/// before the line is parsed.
bool has_minus(const std::string& line) {
  return line.find('-') != std::string::npos;
}

/// Reads one vertex-id token of an edge or entry line, failing on a minus
/// sign for the same reason (a trailing weight may still be negative).
template <typename T>
bool read_id(std::istream& in, T& out) {
  in >> std::ws;
  return in.peek() != '-' && static_cast<bool>(in >> out);
}

}  // namespace

void write_edge_list(std::ostream& out, const CsrGraph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list_file(const std::string& path, const CsrGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_edge_list(out, g);
}

CsrGraph read_edge_list(std::istream& in, GraphReadStats* stats) {
  std::string line;
  VertexId n = 0;
  std::uint64_t m = 0;
  bool have_header = false;
  GraphReadStats local;
  std::vector<std::pair<VertexId, VertexId>> edges;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!have_header) {
      std::uint64_t count = 0;
      if (has_minus(line) || !(ls >> count >> m)) {
        throw std::runtime_error("bad edge-list header: " + line);
      }
      if (count > 0xffffffffull) {
        throw std::runtime_error(
            "edge-list vertex count exceeds 32-bit vertex ids: " + line);
      }
      n = static_cast<VertexId>(count);
      have_header = true;
      // The header's edge count is only a reservation hint; cap it so a
      // corrupt header cannot drive a huge allocation before any entry
      // parses (mirrors read_matrix_market).
      edges.reserve(
          static_cast<std::size_t>(std::min<std::uint64_t>(m, 1u << 24)));
      continue;
    }
    VertexId u, v;
    if (!read_id(ls, u) || !read_id(ls, v)) {
      throw std::runtime_error("bad edge line: " + line);
    }
    if (u >= n || v >= n) {
      throw std::runtime_error(
          "edge endpoint out of range (n = " + std::to_string(n) +
          "): " + line);
    }
    if (u == v) {
      ++local.skipped_self_loops;  // simple graph: no self loops
      continue;
    }
    edges.emplace_back(u, v);
  }
  if (!have_header) throw std::runtime_error("empty edge-list input");
  if (stats != nullptr) *stats = local;
  return CsrGraph::from_edges(n, std::move(edges));
}

CsrGraph read_edge_list_file(const std::string& path, GraphReadStats* stats) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return read_edge_list(in, stats);
}

CsrGraph read_matrix_market(std::istream& in, GraphReadStats* stats) {
  std::string line;
  GraphReadStats local;
  // Banner: "%%MatrixMarket matrix coordinate <field> <symmetry>". The
  // banner is optional in practice (some exporters omit it); when present
  // we reject the dense `array` format outright.
  bool sized = false;
  VertexId n = 0;
  std::uint64_t declared = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  while (std::getline(in, line)) {
    if (!line.empty() && line.rfind("%%MatrixMarket", 0) == 0) {
      if (line.find("array") != std::string::npos) {
        throw std::runtime_error(
            "read_matrix_market: dense 'array' format is not a graph; "
            "expected 'matrix coordinate'");
      }
      continue;
    }
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    if (!sized) {
      std::uint64_t rows = 0, cols = 0;
      if (has_minus(line) || !(ls >> rows >> cols >> declared)) {
        throw std::runtime_error("read_matrix_market: bad size line: " + line);
      }
      const std::uint64_t dim = std::max(rows, cols);
      if (dim > 0xffffffffull) {
        throw std::runtime_error(
            "read_matrix_market: dimension exceeds 32-bit vertex ids: " +
            line);
      }
      n = static_cast<VertexId>(dim);
      sized = true;
      // The declared count is only a reservation hint; cap it so a corrupt
      // size line cannot drive a huge allocation before parsing fails.
      edges.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(declared, 1u << 24)));
      continue;
    }
    std::uint64_t i = 0, j = 0;
    if (!read_id(ls, i) || !read_id(ls, j)) {  // trailing weights are ignored
      throw std::runtime_error("read_matrix_market: bad entry line: " + line);
    }
    if (i == 0 || j == 0 || i > n || j > n) {
      throw std::runtime_error("read_matrix_market: index out of range: " +
                               line);
    }
    if (i == j) {  // self loop: no edge in a simple graph
      ++local.skipped_self_loops;
      continue;
    }
    edges.emplace_back(static_cast<VertexId>(i - 1),
                       static_cast<VertexId>(j - 1));
  }
  if (!sized) throw std::runtime_error("read_matrix_market: empty input");
  if (stats != nullptr) *stats = local;
  // from_edges deduplicates, which also folds general-symmetry files that
  // list both (i, j) and (j, i).
  return CsrGraph::from_edges(n, std::move(edges));
}

CsrGraph read_matrix_market_file(const std::string& path,
                                 GraphReadStats* stats) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return read_matrix_market(in, stats);
}

void write_matrix_market(std::ostream& out, const CsrGraph& g) {
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  out << g.num_vertices() << ' ' << g.num_vertices() << ' ' << g.num_edges()
      << '\n';
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      // Symmetric storage: lower triangle only, 1-based.
      if (v < u) out << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_matrix_market(out, g);
}

bool is_matrix_market_path(const std::string& path) {
  if (path.size() < 4) return false;
  const char* ext = ".mtx";
  for (std::size_t k = 0; k < 4; ++k) {
    const unsigned char c = static_cast<unsigned char>(path[path.size() - 4 + k]);
    if (std::tolower(c) != ext[k]) return false;
  }
  return true;
}

CsrGraph read_graph_file(const std::string& path, GraphReadStats* stats) {
  return is_matrix_market_path(path) ? read_matrix_market_file(path, stats)
                                     : read_edge_list_file(path, stats);
}

}  // namespace picasso::graph
