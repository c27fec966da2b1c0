#pragma once
// PauliSet: the vertex set of the coloring problem.
//
// Stores n Pauli strings as a PackedPauliSet of symplectic records — string
// i is [x_0..x_{w-1} | z_0..z_{w-1}], w = ceil(q / 64), the PackedView
// layout of pauli_packed.hpp — plus one real coefficient each, so the
// anticommutation oracle, the only graph access the Picasso pipeline needs,
// is a few AND/XOR instructions and one parity, and the full O(n^2)-edge
// graph never has to be materialised (§IV-A).
//
// Outside memory a string has one byte layout, shared by .pset spills and
// their append segments, the dataset cache and SolveRequest payloads: its x
// plane, then its z plane, each trimmed to ceil(q / 8) little-endian bytes,
// then its f64 coefficient (pset_record_bytes). PauliSet::write_records and
// decode_records are the one writer/reader pair of that layout; a set bit
// above q in a trimmed plane is corrupt input and is rejected.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_string.hpp"

namespace picasso::pauli {

/// Bytes of one trimmed plane: ceil(num_qubits / 8).
constexpr std::size_t plane_bytes(std::size_t num_qubits) noexcept {
  return num_qubits / 8 + (num_qubits % 8 != 0);
}

/// Bytes one string occupies in every byte format: both trimmed planes and
/// the coefficient. The one per-string figure spill chunk sizes are derived
/// from (Session::plan, the budgeted fused engine, incremental spill
/// stores).
constexpr std::size_t pset_record_bytes(std::size_t num_qubits) noexcept {
  return 2 * plane_bytes(num_qubits) + sizeof(double);
}

/// Reads `count` records at `in` into [x|z] words at `planes` and, unless
/// `coefs` is null, their coefficients at `coefs`. Throws
/// std::runtime_error naming the record when a plane has a bit set at or
/// above num_qubits.
void decode_records(const std::uint8_t* in, std::size_t count,
                    std::size_t num_qubits, std::uint64_t* planes,
                    double* coefs);

class PauliSet {
 public:
  PauliSet() = default;

  /// Builds the encoded set. Coefficients default to 1.
  explicit PauliSet(const std::vector<PauliString>& strings,
                    std::vector<double> coefficients = {});

  /// Adopts decoded records and one coefficient per record
  /// (std::invalid_argument when the counts differ).
  PauliSet(PackedPauliSet records, std::vector<double> coefficients);

  std::size_t size() const noexcept { return records_.size(); }
  std::size_t num_qubits() const noexcept { return records_.num_qubits(); }
  bool empty() const noexcept { return records_.empty(); }

  double coefficient(std::size_t i) const { return coefficients_[i]; }
  const std::vector<double>& coefficients() const { return coefficients_; }

  /// Decoded string i (read back from its planes).
  PauliString string(std::size_t i) const { return records_.string(i); }

  /// Anticommutation oracle: parity of the symplectic product of the two
  /// records (pauli_packed.hpp).
  bool anticommute(std::size_t i, std::size_t j) const noexcept {
    return records_.anticommute(i, j);
  }

  /// Zero-copy packed view over the records, so the SIMD conflict-oracle
  /// kernels (pauli_packed.hpp) run on the set without any extra resident
  /// bytes. The view borrows; it is valid only while this set is alive and
  /// unmodified.
  PackedView packed_view() const noexcept { return records_.view(); }

  /// The records themselves, without the coefficients.
  const PackedPauliSet& packed() const noexcept { return records_; }

  /// Qubit-wise commutativity (the grouping relation of Pauli-measurement
  /// schemes predating general-commutativity grouping, §III of the paper):
  /// strings i and j qubit-wise commute iff at every position the operators
  /// are equal or at least one is the identity — equivalently, iff no
  /// single position anticommutes. In the symplectic planes that is
  /// (x_i & z_j) XOR (z_i & x_j) == 0 in every word.
  bool qubit_wise_commute(std::size_t i, std::size_t j) const noexcept {
    const std::size_t w = records_.words();
    const std::uint64_t* a = records_.record(i);
    const std::uint64_t* b = records_.record(j);
    for (std::size_t k = 0; k < w; ++k) {
      if (((a[k] & b[w + k]) ^ (a[w + k] & b[k])) != 0) return false;
    }
    return true;
  }

  /// Character-comparison reference oracle (decodes on the fly; slow path
  /// used as the unencoded baseline and in cross-checking tests).
  bool anticommute_naive(std::size_t i, std::size_t j) const {
    return string(i).anticommutes_with(string(j));
  }

  /// Number of anticommuting pairs (edges of G). O(n^2) — small inputs only.
  std::uint64_t count_anticommuting_pairs() const;

  /// Bytes of the resident records and coefficients (reported as the input
  /// footprint).
  std::size_t logical_bytes() const noexcept {
    return size() * (2 * records_.words() * sizeof(std::uint64_t) +
                     sizeof(double));
  }

  /// Subset by vertex ids (used when an experiment trims a dataset), by
  /// copying each id's record.
  PauliSet subset(const std::vector<std::uint32_t>& ids) const;

  /// First `count` strings, by straight copy of the records (no decode
  /// round-trip) — the incremental engine's escalation re-solves exactly
  /// the ingested prefix. `count` is clamped to size().
  PauliSet prefix(std::size_t count) const;

  /// Appends every string of `other` (ids continue after size()). An empty
  /// base adopts `other`'s qubit count; otherwise the counts must match
  /// (std::invalid_argument). Appending invalidates packed_view()s.
  void append(const PauliSet& other);

  /// Builds a set from `count` records in the byte layout at `records`
  /// (decode_records; std::runtime_error on a set padding bit). An empty
  /// set loads with num_qubits() == 0.
  static PauliSet from_records(std::size_t num_qubits, std::size_t count,
                               const std::uint8_t* records);

  /// Writes every string's record to `out`, a batch at a time, so the
  /// encoded bytes never sit resident all at once — the record section of
  /// save_binary and of .pset append segments.
  void write_records(std::ostream& out) const;

  /// Binary serialization: magic, qubit count, string count, then every
  /// string's record. A .pset base block is these bytes.
  void save_binary(std::ostream& out) const;

  /// Bytes save_binary writes.
  std::size_t binary_size() const noexcept {
    return kBinaryHeaderBytes + size() * pset_record_bytes(num_qubits());
  }

  /// Writes the same bytes into the first binary_size() bytes of `out` (a
  /// wire payload); std::invalid_argument when `out` is shorter.
  void save_binary(std::span<std::uint8_t> out) const;

  /// Parses save_binary output through from_records. The header's string
  /// count is checked against the bytes the stream still holds (when it can
  /// seek) before anything is allocated. Bad magic, truncated input and set
  /// padding bits throw std::runtime_error.
  static PauliSet load_binary(std::istream& in);

  /// Same parse over save_binary bytes already in memory (a wire payload),
  /// with the same checks and exceptions; bytes past the set are ignored.
  static PauliSet load_binary(std::span<const std::uint8_t> bytes);

  /// First word of save_binary output and of every .pset file ("PAULIXZ1";
  /// the 3-bit "PAULISET" layout before it is no longer read).
  static constexpr std::uint64_t kBinaryMagic = 0x5041554c49585a31ULL;

 private:
  static constexpr std::size_t kBinaryHeaderBytes = 3 * sizeof(std::uint64_t);

  PackedPauliSet records_;
  std::vector<double> coefficients_;
};

}  // namespace picasso::pauli
