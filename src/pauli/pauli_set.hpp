#pragma once
// PauliSet: the vertex set of the coloring problem.
//
// Stores n Pauli strings as a PackedPauliSet of symplectic records — string
// i is [x_0..x_{w-1} | z_0..z_{w-1}], w = ceil(q / 64), the PackedView
// layout of pauli_packed.hpp — plus one real coefficient each, so the
// anticommutation oracle, the only graph access the Picasso pipeline needs,
// is a few AND/XOR instructions and one parity, and the full O(n^2)-edge
// graph never has to be materialised (§IV-A). The paper's 3-bit
// inverse-one-hot words are not kept resident: they are the .pset/wire byte
// format, built from the planes when a set is saved and decoded straight
// back into planes when one is loaded (encoding.hpp keeps the 3-bit kernel
// as the reference).

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "pauli/encoding.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_string.hpp"

namespace picasso::pauli {

class PauliSet {
 public:
  PauliSet() = default;

  /// Builds the encoded set. Coefficients default to 1.
  explicit PauliSet(const std::vector<PauliString>& strings,
                    std::vector<double> coefficients = {});

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

  /// Builds a set from `count` records in the save_binary byte layout:
  /// `records` holds count * words_per_string3(num_qubits) little-endian
  /// 3-bit words, then count coefficients. The words are decoded straight
  /// into the planes (x = bit 3k+2, z = bit 3k), word by word. Every field
  /// below num_qubits must carry one of the four codes, which are exactly
  /// the even-parity ones (std::invalid_argument otherwise); padding bits
  /// are ignored. An empty set loads with num_qubits() == 0.
  static PauliSet from_records(std::size_t num_qubits, std::size_t count,
                               const std::uint8_t* records);

  /// Writes the 3-bit words of every string, built from the planes — the
  /// record section of save_binary and of .pset append segments.
  void write_words3(std::ostream& out) const;

  /// Binary serialization (dataset disk cache). Format: magic, qubit count,
  /// string count, packed 3-bit words, coefficients.
  void save_binary(std::ostream& out) const;

  /// Bytes save_binary writes.
  std::size_t binary_size() const noexcept {
    return kBinaryHeaderBytes +
           size() * (words_per_string3(num_qubits()) * sizeof(std::uint64_t) +
                     sizeof(double));
  }

  /// Writes the same bytes into the first binary_size() bytes of `out` (a
  /// wire payload); std::invalid_argument when `out` is shorter.
  void save_binary(std::span<std::uint8_t> out) const;

  /// Parses save_binary output through from_records. The header's string
  /// count is checked against the bytes the stream still holds (when it can
  /// seek) before anything is allocated. Bad magic or truncated input throw
  /// std::runtime_error, corrupt codes std::invalid_argument.
  static PauliSet load_binary(std::istream& in);

  /// Same parse over save_binary bytes already in memory (a wire payload),
  /// with the same checks and exceptions; bytes past the set are ignored.
  static PauliSet load_binary(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::size_t kBinaryHeaderBytes = 3 * sizeof(std::uint64_t);

  PackedPauliSet records_;
  std::vector<double> coefficients_;
};

}  // namespace picasso::pauli
