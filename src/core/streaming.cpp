#include "core/streaming.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace picasso::core {

FileEdgeStream::FileEdgeStream(std::string path) : path_(std::move(path)) {
  // Read the header once to expose the dimensions; edges stay on disk.
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("FileEdgeStream: cannot open " + path_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!(ls >> num_vertices_ >> num_edges_)) {
      throw std::runtime_error("FileEdgeStream: bad header in " + path_);
    }
    return;
  }
  throw std::runtime_error("FileEdgeStream: empty file " + path_);
}

void FileEdgeStream::replay(
    const std::function<void(std::uint32_t, std::uint32_t)>& fn) const {
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("FileEdgeStream: cannot reopen " + path_);
  std::string line;
  bool header_seen = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!header_seen) {
      header_seen = true;  // skip the "n m" line
      continue;
    }
    std::uint32_t u, v;
    if (!(ls >> u >> v)) {
      throw std::runtime_error("FileEdgeStream: bad edge line: " + line);
    }
    fn(u, v);
  }
}

std::size_t spill_chunk_strings(std::size_t explicit_chunk, std::size_t budget,
                                std::size_t per_string, std::size_t n) {
  std::size_t chunk = explicit_chunk;
  if (chunk == 0 && budget > 0) {
    // Two resident chunks get half the budget.
    chunk = std::max<std::size_t>(
        1, (budget / 4) / std::max<std::size_t>(1, per_string));
  }
  if (chunk == 0) chunk = n;  // no guidance: one chunk
  return std::min(std::max<std::size_t>(1, chunk), std::max<std::size_t>(1, n));
}

std::string unique_spill_path(const std::string& dir, const char* tag) {
  namespace fs = std::filesystem;
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  fs::create_directories(base);
  // One counter for every spill site in the process: uniqueness must hold
  // across concurrent solves regardless of which engine named the file.
  static std::atomic<std::uint64_t> spill_counter{0};
  char name[96];
  std::snprintf(name, sizeof(name), "picasso_%s_%d_%llu.pset", tag,
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    spill_counter.fetch_add(1, std::memory_order_relaxed)));
  return (base / name).string();
}

std::size_t sweep_orphan_spills(const std::string& dir) {
  namespace fs = std::filesystem;
  if (dir.empty()) return 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::size_t removed = 0;
  for (const auto& entry : it) {
    const std::string file = entry.path().filename().string();
    // Only files this process family named: picasso_<tag>_<pid>_<counter>
    // with a .pset suffix, or the .pset.colors sidecars earlier builds wrote
    // next to their spills. Everything else in the directory is left alone.
    if (file.rfind("picasso_", 0) != 0) continue;
    const bool spill = file.size() > 5 && file.ends_with(".pset");
    const bool sidecar = file.ends_with(".pset.colors");
    if (!spill && !sidecar) continue;
    // pid is the second-to-last '_'-separated field.
    const std::size_t counter_sep = file.rfind('_');
    if (counter_sep == std::string::npos) continue;
    const std::size_t pid_sep = file.rfind('_', counter_sep - 1);
    if (pid_sep == std::string::npos) continue;
    int pid = 0;
    try {
      pid = std::stoi(file.substr(pid_sep + 1, counter_sep - pid_sep - 1));
    } catch (const std::exception&) {
      continue;
    }
    if (pid <= 0 || pid == static_cast<int>(::getpid())) continue;
    // kill(pid, 0): probes existence without signalling. ESRCH = the owner
    // is gone and its spill is an orphan from a crash; EPERM = some live
    // process of another user owns the pid, so leave the file.
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    std::error_code rm;
    if (fs::remove(entry.path(), rm) && !rm) ++removed;
  }
  return removed;
}

}  // namespace picasso::core
