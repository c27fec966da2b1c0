// Generic graphs through the full palette pipeline: MatrixMarket (or
// edge-list) ingestion feeding the explicit edge-list conflict oracle.
//
// The Pauli drivers answer adjacency implicitly from packed bit masks; this
// entry point shows the other side of the pluggable conflict-oracle
// interface (core/conflict_oracle.hpp): an arbitrary graph loaded from a
// SuiteSparse-style .mtx file, colored by the identical Algorithm 1 loop
// through graph::CsrOracle, and cross-checked against greedy baselines.
//
// Usage: generic_mtx_coloring [graph.mtx|graph.el] [percent] [alpha]
//   With no file, a power-law R-MAT instance is generated, written to a
//   temporary .mtx, and read back — a self-contained round-trip demo.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "coloring/greedy.hpp"
#include "coloring/verify.hpp"
#include "api/session.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_io.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace picasso;

  graph::CsrGraph g;
  std::string source;
  if (argc > 1 && argv[1][0] != '-') {
    source = argv[1];
    g = graph::read_graph_file(source);
  } else {
    // Self-contained demo: generate, spill as MatrixMarket, read back.
    const auto generated =
        graph::rmat(4000, 40000, 0.57, 0.19, 0.19, /*seed=*/7);
    const auto path =
        (std::filesystem::temp_directory_path() / "picasso_demo.mtx").string();
    graph::write_matrix_market_file(path, generated);
    g = graph::read_matrix_market_file(path);
    std::filesystem::remove(path);
    source = "rmat(4000, 40k) via " + path;
  }
  const double percent = argc > 2 ? std::atof(argv[2]) : 12.5;
  const double alpha = argc > 3 ? std::atof(argv[3]) : 2.0;

  std::printf("graph %s: %u vertices, %llu edges, max degree %u\n\n",
              source.c_str(), g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), g.max_degree());

  util::Table table({"algorithm", "colors", "time", "valid"});

  const auto greedy =
      coloring::greedy_color(g, coloring::OrderingKind::LargestFirst);
  table.add_row({"greedy-LF", util::Table::fmt_int(greedy.num_colors),
                 util::format_duration(greedy.seconds),
                 coloring::is_valid_coloring(g, greedy.colors) ? "yes" : "NO"});

  const auto session = api::SessionBuilder().palette(percent, alpha).build();
  const auto r = session.solve(api::Problem::csr(g)).result;
  table.add_row({"picasso (edge-list oracle)",
                 util::Table::fmt_int(r.num_colors),
                 util::format_duration(r.total_seconds),
                 coloring::is_valid_coloring(g, r.colors) ? "yes" : "NO"});
  table.print("palette pipeline on " + source);

  std::printf(
      "\n%zu iterations, max conflict edges visited %llu, palette total %u\n"
      "The same Algorithm 1 loop that groups Pauli strings colors this\n"
      "graph; only the conflict oracle changed (CsrOracle vs the packed\n"
      "anticommutation masks).\n",
      r.iterations.size(),
      static_cast<unsigned long long>(r.max_conflict_edges), r.palette_total);
  return coloring::is_valid_coloring(g, r.colors) ? 0 : 1;
}
