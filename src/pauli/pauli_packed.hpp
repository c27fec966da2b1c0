#pragma once
// Bit-packed symplectic Pauli representation and SIMD anticommutation
// kernels — the resident form of every PauliSet and the hot path of the
// pluggable conflict oracle.
//
// Layout: each string is one contiguous *record* of 2w 64-bit words,
// [x_0..x_{w-1} | z_0..z_{w-1}] with w = ceil(num_qubits / 64); qubit q sets
// bit q%64 of word q/64 in the x plane (X, Y) and/or the z plane (Z, Y).
// Strings a, b anticommute iff popcount(ax & bz) + popcount(az & bx) is odd.
// Because parity(popcount(A)) ^ parity(popcount(B)) == parity(popcount(A^B)),
// the whole test folds to *one* parity at the end:
//
//     acc = XOR_k ( (ax_k & bz_k) ^ (az_k & bx_k) );  answer = parity(acc)
//
// — one AND+XOR per word and a single popcount, versus one popcount per word
// for the paper's 3-bit inverse-one-hot kernel (encoding.hpp), at half the
// words (64 qubits per word instead of 21). Swapping one operand's planes
// ([z|x] instead of [x|z], make_swapped_record) turns the test into a plain
// element-wise AND of two records, which is what the block kernels exploit:
// one string against a batch of records is pure AND/XOR/shift — fully
// vectorizable. An AVX2 path is compiled with a function-level target
// attribute (no special build flags) and selected at runtime via cpuid, so
// the same binary runs on any x86-64 and non-x86 builds fall back to the
// portable scalar kernel. All kernels compute the same relation bit-for-bit;
// tests/test_pauli_packed.cpp pins the agreement exhaustively.

#include <cstdint>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace picasso::pauli {

class PauliSet;

// ---------------------------------------------------------------------------
// SIMD dispatch.

enum class SimdLevel {
  Auto,    // best the CPU supports, detected once at first use
  Scalar,  // portable word-at-a-time kernel
  Avx2,    // 256-bit AND/XOR/shift kernels (x86-64 with AVX2 only)
};

const char* to_string(SimdLevel level) noexcept;

/// Best level this CPU supports (never returns Auto).
SimdLevel best_simd_level() noexcept;

/// Resolves Auto to the detected level and downgrades an explicit Avx2
/// request to Scalar when the CPU (or the target) lacks it.
SimdLevel resolve_simd_level(SimdLevel requested) noexcept;

// ---------------------------------------------------------------------------
// Packed records.

/// Non-owning view of packed records (data holds size * 2 * words words).
struct PackedView {
  const std::uint64_t* data = nullptr;
  std::size_t size = 0;
  std::size_t words = 0;  // per plane; a record is 2 * words

  std::size_t record_words() const noexcept { return 2 * words; }
  const std::uint64_t* record(std::size_t i) const noexcept {
    return data + i * record_words();
  }
};

/// Words per plane for `num_qubits` (same rounding as words_per_string2).
constexpr std::size_t packed_words(std::size_t num_qubits) noexcept {
  return (num_qubits + 63) / 64;
}

/// Writes the plane-swapped record [z|x] of `record` ([x|z], `words` per
/// plane) into `out` (2 * words words): AND-ing a swapped record against a
/// normal one yields exactly the symplectic-product terms.
void make_swapped_record(const std::uint64_t* record, std::size_t words,
                         std::uint64_t* out) noexcept;

/// Scalar anticommutation of two packed records ([x|z], `words` per plane).
inline bool anticommute_record_scalar(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::size_t words) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < words; ++k) {
    acc ^= (a[k] & b[words + k]) ^ (a[words + k] & b[k]);
  }
  return __builtin_parityll(acc) != 0;
}

/// Decodes the record [x|z] (`words` per plane) of a string over
/// `num_qubits` back to symbolic form; Y is the intersection of the planes.
PauliString decode_record(const std::uint64_t* record, std::size_t words,
                          std::size_t num_qubits);

/// Block kernel: out[j] = anticommute(u, records[ids[j]]) for j in [0,count),
/// where u is given pre-swapped ([z|x], see make_swapped_record) and records
/// are indexed record-wise into a packed base pointer. The hot call of the
/// blocked pair-scan: the caller batches the candidates that survived the
/// palette prefilter and asks for all their answers at once.
using AnticommuteBlockFn = void (*)(const std::uint64_t* u_swapped,
                                    const std::uint64_t* records,
                                    std::size_t words,
                                    const std::uint32_t* ids,
                                    std::size_t count, std::uint8_t* out);

/// Kernel for the given plane width at the given (resolved) SIMD level.
AnticommuteBlockFn resolve_block_kernel(std::size_t words,
                                        SimdLevel level) noexcept;

// ---------------------------------------------------------------------------
// Owning packed set.

/// A Pauli set stored as packed symplectic records without coefficients —
/// what streaming chunks reload as.
class PackedPauliSet {
 public:
  PackedPauliSet() = default;

  /// Encodes from symbolic strings.
  explicit PackedPauliSet(const std::vector<PauliString>& strings);

  /// Copies the records of `set`, without its coefficients.
  explicit PackedPauliSet(const PauliSet& set);

  /// Adopts raw packed words (size * 2 * packed_words(num_qubits) of them) —
  /// the spill-file reload path.
  static PackedPauliSet from_raw(std::size_t num_qubits, std::size_t size,
                                 std::vector<std::uint64_t> words);

  std::size_t size() const noexcept { return size_; }
  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t words() const noexcept { return words_; }
  bool empty() const noexcept { return size_ == 0; }

  const std::uint64_t* record(std::size_t i) const noexcept {
    return data_.data() + i * 2 * words_;
  }
  PackedView view() const noexcept { return {data_.data(), size_, words_}; }

  /// Decodes string i back to symbolic form (round-trip tests, spill-less
  /// interop).
  PauliString string(std::size_t i) const {
    return decode_record(record(i), words_, num_qubits_);
  }

  /// Appends every record of `other` (ids continue after size()) — the
  /// incremental update path growing its resident store in place. An empty
  /// base adopts `other`'s geometry; otherwise the qubit counts must match
  /// (std::invalid_argument). Appending invalidates outstanding view()s.
  void append(const PackedPauliSet& other);

  bool anticommute(std::size_t i, std::size_t j) const noexcept {
    return anticommute_record_scalar(record(i), record(j), words_);
  }

  std::size_t logical_bytes() const noexcept {
    return data_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::size_t size_ = 0;
  std::size_t num_qubits_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> data_;  // size_ * 2 * words_
};

}  // namespace picasso::pauli
