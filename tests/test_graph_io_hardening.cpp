// Corrupt-input hardening of the graph text readers (graph/graph_io.cpp):
// huge header edge counts must not drive huge allocations, out-of-range
// endpoints must fail naming the offending line, self loops are skipped
// and counted identically in both formats, and MatrixMarket dispatch is
// case-insensitive on the extension.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/graph_io.hpp"

namespace pg = picasso::graph;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct FileGuard {
  std::string path;
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
};

}  // namespace

// A corrupt header claiming ~2^63 edges must parse the (tiny) body rather
// than die trying to reserve the claimed count up front.
TEST(GraphIoHardening, HugeHeaderEdgeCountDoesNotPreallocate) {
  std::istringstream in("3 9223372036854775807\n0 1\n1 2\n");
  const pg::CsrGraph g = pg::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIoHardening, HugeMatrixMarketEntryCountDoesNotPreallocate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 9223372036854775807\n"
      "1 2\n"
      "2 3\n");
  const pg::CsrGraph g = pg::read_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

// Endpoints past the declared vertex count must throw, and the error must
// quote the offending line so corrupt files are actionable.
TEST(GraphIoHardening, OutOfRangeEndpointNamesLine) {
  std::istringstream in("3 2\n0 1\n1 7\n");
  try {
    pg::read_edge_list(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    EXPECT_NE(what.find("1 7"), std::string::npos) << what;
    EXPECT_NE(what.find("n = 3"), std::string::npos) << what;
  }
}

TEST(GraphIoHardening, MatrixMarketOutOfRangeIndexNamesLine) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 2\n"
      "1 2\n"
      "4 1\n");
  try {
    pg::read_matrix_market(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    EXPECT_NE(what.find("4 1"), std::string::npos) << what;
  }
}

// Both readers share the self-loop policy: skip the line, count the skip,
// keep everything else.
TEST(GraphIoHardening, EdgeListSelfLoopsSkippedAndCounted) {
  std::istringstream in("4 5\n0 0\n0 1\n2 2\n1 2\n3 3\n");
  pg::GraphReadStats stats;
  const pg::CsrGraph g = pg::read_edge_list(in, &stats);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(stats.skipped_self_loops, 3u);
}

TEST(GraphIoHardening, MatrixMarketSelfLoopsSkippedAndCounted) {
  // A negative weight after the two indices is a value, not an id.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "4 4 4\n"
      "1 1\n"
      "2 1 -0.5\n"
      "3 3\n"
      "4 2\n");
  pg::GraphReadStats stats;
  const pg::CsrGraph g = pg::read_matrix_market(in, &stats);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(stats.skipped_self_loops, 2u);
}

// Stats parameter defaults keep the old single-argument calls compiling —
// and a reader that throws must leave the caller's stats untouched.
TEST(GraphIoHardening, StatsUntouchedOnParseFailure) {
  pg::GraphReadStats stats;
  stats.skipped_self_loops = 77;
  std::istringstream in("3 2\n0 1\nnot an edge\n");
  EXPECT_THROW(pg::read_edge_list(in, &stats), std::runtime_error);
  EXPECT_EQ(stats.skipped_self_loops, 77u);
}

TEST(GraphIoHardening, MatrixMarketPathDetectionIsCaseInsensitive) {
  EXPECT_TRUE(pg::is_matrix_market_path("graph.mtx"));
  EXPECT_TRUE(pg::is_matrix_market_path("GRAPH.MTX"));
  EXPECT_TRUE(pg::is_matrix_market_path("/tmp/Graph.Mtx"));
  EXPECT_FALSE(pg::is_matrix_market_path("graph.txt"));
  EXPECT_FALSE(pg::is_matrix_market_path("graphmtx"));
  EXPECT_FALSE(pg::is_matrix_market_path("graph.mtx.bak"));
}

// read_graph_file must route an upper-case .MTX through the MatrixMarket
// parser (a .MTX body is not a valid edge list, so misrouting throws).
TEST(GraphIoHardening, UppercaseMtxFileDispatchesToMatrixMarket) {
  const FileGuard guard(temp_path("picasso_io_hardening_UPPER.MTX"));
  {
    std::ofstream out(guard.path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 2\n";
  }
  pg::GraphReadStats stats;
  const pg::CsrGraph g = pg::read_graph_file(guard.path, &stats);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(stats.skipped_self_loops, 0u);
}

// Malformed headers and truncated bodies fail loudly, never crash.
TEST(GraphIoHardening, MalformedInputsThrow) {
  {
    std::istringstream in("");
    EXPECT_THROW(pg::read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("notanumber 5\n");
    EXPECT_THROW(pg::read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("3 2\n0\n");
    EXPECT_THROW(pg::read_edge_list(in), std::runtime_error);
  }
  {
    // A negative vertex count must not wrap into a 2^32-vertex graph.
    std::istringstream in("-1 0\n");
    EXPECT_THROW(pg::read_edge_list(in), std::runtime_error);
  }
  {
    // -(2^64 - 1) wraps to a plausible 1 in a 64-bit read.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "-18446744073709551615 2 0\n");
    EXPECT_THROW(pg::read_matrix_market(in), std::runtime_error);
  }
  {
    // An endpoint of -(2^32 - 1) wraps to vertex 1 in a 32-bit read.
    std::istringstream in("3 1\n0 -4294967295\n");
    EXPECT_THROW(pg::read_edge_list(in), std::runtime_error);
  }
  {
    // An entry index of -(2^64 - 2) wraps to index 2 in a 64-bit read.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 1\n"
        "1 -18446744073709551614\n");
    EXPECT_THROW(pg::read_matrix_market(in), std::runtime_error);
  }
  {
    std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
    EXPECT_THROW(pg::read_matrix_market(in), std::runtime_error);
  }
  {
    std::istringstream in("%%MatrixMarket matrix coordinate pattern general\n");
    EXPECT_THROW(pg::read_matrix_market(in), std::runtime_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 1\n"
        "1\n");
    EXPECT_THROW(pg::read_matrix_market(in), std::runtime_error);
  }
}
