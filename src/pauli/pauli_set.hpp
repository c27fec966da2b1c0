#pragma once
// PauliSet: the vertex set of the coloring problem.
//
// Stores n Pauli strings (with real coefficients) in structure-of-arrays
// encoded form so that the anticommutation oracle — the only graph access the
// Picasso pipeline needs — is a handful of AND+popcount instructions, and the
// full O(n^2)-edge graph never has to be materialised (§IV-A).

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

  std::size_t size() const noexcept { return size_; }
  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t words_per_string() const noexcept { return words3_; }
  bool empty() const noexcept { return size_ == 0; }

  double coefficient(std::size_t i) const { return coefficients_[i]; }
  const std::vector<double>& coefficients() const { return coefficients_; }

  /// Decoded string i (reconstructs from the packed form).
  PauliString string(std::size_t i) const;

  /// Pointer to the 3-bit encoded words of string i.
  const std::uint64_t* encoded3(std::size_t i) const {
    return words3_data_.data() + i * words3_;
  }

  /// Fast anticommutation oracle (inverse one-hot encoding).
  bool anticommute(std::size_t i, std::size_t j) const noexcept {
    return anticommute3(encoded3(i), encoded3(j), words3_);
  }

  /// Zero-copy packed view over the symplectic planes: string i's storage
  /// [x_0..x_{w-1} | z_0..z_{w-1}] is exactly one PackedView record, so the
  /// SIMD conflict-oracle kernels (pauli_packed.hpp) run on the encoded set
  /// without any extra resident bytes. The view borrows; it is valid only
  /// while this set is alive and unmodified.
  PackedView packed_view() const noexcept {
    return {words2_data_.data(), size_, words2_};
  }

  /// Symplectic-encoding oracle (same answer, different kernel).
  bool anticommute_symplectic(std::size_t i, std::size_t j) const noexcept {
    const std::size_t w = words2_;
    const std::uint64_t* base = words2_data_.data();
    return anticommute2(base + (2 * i) * w, base + (2 * i + 1) * w,
                        base + (2 * j) * w, base + (2 * j + 1) * w, w);
  }

  /// Qubit-wise commutativity (the grouping relation of Pauli-measurement
  /// schemes predating general-commutativity grouping, §III of the paper):
  /// strings i and j qubit-wise commute iff at every position the operators
  /// are equal or at least one is the identity — equivalently, iff no
  /// single position anticommutes. In the symplectic planes that is
  /// (x_i & z_j) XOR (z_i & x_j) == 0 in every word.
  bool qubit_wise_commute(std::size_t i, std::size_t j) const noexcept {
    const std::size_t w = words2_;
    const std::uint64_t* base = words2_data_.data();
    const std::uint64_t* ax = base + (2 * i) * w;
    const std::uint64_t* az = base + (2 * i + 1) * w;
    const std::uint64_t* bx = base + (2 * j) * w;
    const std::uint64_t* bz = base + (2 * j + 1) * w;
    for (std::size_t k = 0; k < w; ++k) {
      if (((ax[k] & bz[k]) ^ (az[k] & bx[k])) != 0) return false;
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

  /// Bytes of the encoded storage (reported as the input footprint).
  std::size_t logical_bytes() const noexcept {
    return words3_data_.size() * sizeof(std::uint64_t) +
           words2_data_.size() * sizeof(std::uint64_t) +
           coefficients_.size() * sizeof(double);
  }

  /// Subset by vertex ids (used when an experiment trims a dataset), by
  /// copying each id's encoded records.
  PauliSet subset(const std::vector<std::uint32_t>& ids) const;

  /// First `count` strings, by straight copy of the encoded storage (no
  /// decode round-trip) — the incremental engine's escalation re-solves
  /// exactly the ingested prefix. `count` is clamped to size().
  PauliSet prefix(std::size_t count) const;

  /// Appends every string of `other` (ids continue after size()). An empty
  /// base adopts `other`'s qubit count; otherwise the counts must match
  /// (std::invalid_argument). Appending invalidates packed_view()s.
  void append(const PauliSet& other);

  /// Builds a set straight from its 3-bit words, the save_binary record
  /// layout: `words3` holds words_per_string3(num_qubits) words per string
  /// and `coefficients` one value per string (std::invalid_argument when the
  /// counts disagree). Every field below num_qubits must carry one of the
  /// four codes, which are exactly the even-parity ones
  /// (std::invalid_argument otherwise); padding bits are cleared, and the
  /// symplectic planes are derived word by word (x = bit 3k+2, z = bit 3k).
  /// No string is decoded. An empty set loads with num_qubits() == 0.
  static PauliSet from_encoded3(std::size_t num_qubits,
                                std::vector<std::uint64_t> words3,
                                std::vector<double> coefficients);

  /// Binary serialization (dataset disk cache). Format: magic, qubit count,
  /// string count, packed 3-bit words, coefficients.
  void save_binary(std::ostream& out) const;

  /// Bytes save_binary writes.
  std::size_t binary_size() const noexcept {
    return kBinaryHeaderBytes + words3_data_.size() * sizeof(std::uint64_t) +
           coefficients_.size() * sizeof(double);
  }

  /// Writes the same bytes into the first binary_size() bytes of `out` (a
  /// wire payload); std::invalid_argument when `out` is shorter.
  void save_binary(std::span<std::uint8_t> out) const;

  /// Parses save_binary output through from_encoded3. The header's string
  /// count is checked against the bytes the stream still holds (when it can
  /// seek) before anything is allocated. Bad magic or truncated input throw
  /// std::runtime_error, corrupt codes std::invalid_argument.
  static PauliSet load_binary(std::istream& in);

  /// Same parse over save_binary bytes already in memory (a wire payload),
  /// with the same checks and exceptions; bytes past the set are ignored.
  static PauliSet load_binary(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::size_t kBinaryHeaderBytes = 3 * sizeof(std::uint64_t);

  std::size_t size_ = 0;
  std::size_t num_qubits_ = 0;
  std::size_t words3_ = 0;
  std::size_t words2_ = 0;
  std::vector<std::uint64_t> words3_data_;  // size_ * words3_
  std::vector<std::uint64_t> words2_data_;  // size_ * 2 * words2_ (x, z)
  std::vector<double> coefficients_;
};

}  // namespace picasso::pauli
