#include "pauli/datasets.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <system_error>

#include "pauli/pauli_stream.hpp"

namespace picasso::pauli {

const char* to_string(SizeClass c) noexcept {
  switch (c) {
    case SizeClass::Small: return "small";
    case SizeClass::Medium: return "medium";
    case SizeClass::Large: return "large";
  }
  return "?";
}

const std::vector<DatasetSpec>& all_datasets() {
  static const std::vector<DatasetSpec> registry = [] {
    std::vector<DatasetSpec> d;
    auto add = [&d](int atoms, Geometry g, Basis b, SizeClass c,
                    bool ansatz = true, double amp_th = 1e-6,
                    std::size_t cap = 0) {
      MoleculeSpec m{atoms, g, b, 1.4};
      d.push_back({m.name(), m, c, cap, ansatz, amp_th});
    };
    // Small: explicit-graph baselines (ColPack / JP / speculative) still
    // fit in container memory and time (n up to ~6k, ~50-65% dense).
    add(4, Geometry::Cube3D, Basis::STO3G, SizeClass::Small);
    add(4, Geometry::Sheet2D, Basis::STO3G, SizeClass::Small);
    add(4, Geometry::Chain1D, Basis::STO3G, SizeClass::Small);
    add(6, Geometry::Cube3D, Basis::STO3G, SizeClass::Small,
        /*ansatz=*/true, 1e-6, /*cap=*/6000);
    add(6, Geometry::Sheet2D, Basis::STO3G, SizeClass::Small,
        /*ansatz=*/true, 1e-6, /*cap=*/6000);
    add(6, Geometry::Chain1D, Basis::STO3G, SizeClass::Small);
    add(4, Geometry::Sheet2D, Basis::B631G, SizeClass::Small,
        /*ansatz=*/false);
    // Medium: explicit baselines exceed time/memory budgets at container
    // scale; Picasso colors them through the oracle.
    add(6, Geometry::Cube3D, Basis::B631G, SizeClass::Medium,
        /*ansatz=*/false);
    add(4, Geometry::Cube3D, Basis::B631G, SizeClass::Medium,
        /*ansatz=*/true, 1e-6, /*cap=*/20000);
    add(8, Geometry::Sheet2D, Basis::STO3G, SizeClass::Medium,
        /*ansatz=*/true, 1e-6, /*cap=*/35000);
    // Large: oracle-only territory (the paper's >40 GB-GPU regime).
    add(8, Geometry::Sheet2D, Basis::B631G, SizeClass::Large,
        /*ansatz=*/false);
    add(10, Geometry::Cube3D, Basis::B631G, SizeClass::Large,
        /*ansatz=*/false, 1e-6, /*cap=*/150000);
    return d;
  }();
  return registry;
}

std::vector<DatasetSpec> datasets_in_class(SizeClass c) {
  std::vector<DatasetSpec> out;
  for (const auto& d : all_datasets()) {
    if (d.size_class == c) out.push_back(d);
  }
  return out;
}

const DatasetSpec& dataset_by_name(const std::string& name) {
  for (const auto& d : all_datasets()) {
    if (d.name == name) return d;
  }
  throw std::out_of_range("unknown dataset: " + name);
}

namespace {

std::map<std::string, PauliSet>& dataset_cache() {
  static std::map<std::string, PauliSet> cache;
  return cache;
}

/// Disk cache directory: $PICASSO_DATA_DIR or ./.picasso_cache. Generation
/// of the larger ansatz-extended sets takes tens of seconds, and every bench
/// binary is its own process — the disk cache amortises that.
std::filesystem::path cache_dir() {
  if (const char* env = std::getenv("PICASSO_DATA_DIR")) return env;
  return ".picasso_cache";
}

std::filesystem::path cache_path(const DatasetSpec& spec) {
  // Recipe parameters and the record layout's tag ("xz1": trimmed planes,
  // pauli_set.hpp) are baked into the file name, so stale caches miss and
  // builds of another layout keep their own files beside these.
  char suffix[112];
  std::snprintf(suffix, sizeof(suffix), "%s_a%d_t%g_c%zu_xz1.pset",
                spec.name.c_str(), spec.with_ansatz ? 1 : 0,
                spec.amp_threshold, spec.cap);
  return cache_dir() / suffix;
}

PauliSet generate_dataset(const DatasetSpec& spec) {
  const PauliOperator op =
      spec.with_ansatz
          ? ansatz_extended_operator(spec.molecule, 1e-8, spec.amp_threshold)
          : molecular_hamiltonian(spec.molecule);
  return pauli_set_from_operator(op, /*drop_tol=*/1e-10, spec.cap);
}

}  // namespace

const PauliSet& load_dataset(const DatasetSpec& spec) {
  auto& cache = dataset_cache();
  auto it = cache.find(spec.name);
  if (it != cache.end()) return it->second;

  // Entries are .pset spills, read back through the reader that verifies
  // their checksum trailer, so a damaged entry is regenerated rather than
  // served.
  const std::filesystem::path path = cache_path(spec);
  try {
    const ChunkedPauliReader reader(path.string(), 1);
    PauliSet set = reader.load_strings(0, reader.num_strings());
    return cache.emplace(spec.name, std::move(set)).first->second;
  } catch (const std::exception&) {
    // Missing or corrupt cache entry: fall through and regenerate.
  }

  PauliSet set = generate_dataset(spec);
  std::error_code ec;
  std::filesystem::create_directories(cache_dir(), ec);
  if (!ec) {
    try {
      spill_pauli_set(set, path.string());
    } catch (const std::exception&) {
      // An unwritable cache only costs the next process a regeneration.
    }
  }
  return cache.emplace(spec.name, std::move(set)).first->second;
}

void clear_dataset_cache() { dataset_cache().clear(); }

PauliSet fig1_h2_set() {
  static const char* kStrings[] = {
      "IIII", "XYXY", "YYXY", "XXXY", "YXXY", "XYYY", "YYYY", "XXYY", "YXYY",
      "XYXX", "YYXX", "XXXX", "YXXX", "XYYX", "YYYX", "XXYX", "YXYX",
  };
  std::vector<PauliString> strings;
  strings.reserve(std::size(kStrings));
  for (const char* s : kStrings) strings.push_back(PauliString::parse(s));
  return PauliSet(strings);
}

}  // namespace picasso::pauli
