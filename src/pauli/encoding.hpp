#pragma once
// Bit encodings for fast anticommutation tests (§IV-A of the paper).
//
// Primary (paper) encoding — "inverse one-hot", 3 bits per operator:
//     X -> 110, Y -> 101, Z -> 011, I -> 000.
// For any two operators the popcount of the AND of their codes is odd exactly
// when they are distinct non-identity operators, i.e. when they anticommute.
// Two strings anticommute iff the total popcount over all positions is odd,
// so the whole test is one AND + popcount per 64-bit word (21 ops per word).
//
// Alternative encoding — symplectic, 2 bits per operator in two planes
// (x-bit, z-bit): X=(1,0), Y=(1,1), Z=(0,1), I=(0,0). Strings anticommute iff
// popcount(x1 & z2) + popcount(z1 & x2) is odd (64 ops per word per plane).
//
// The paper's kernel runs on the inverse-one-hot form. This library keeps
// strings only as symplectic planes (PauliSet, pauli_packed.hpp), whose
// kernels need fewer words and one parity per pair; files and frames hold
// those planes too (the record layout of pauli_set.hpp). The functions
// below are the paper's reference: the differential suites and ablation
// benches run anticommute3 as the paper's kernel, and bench_encoding
// measures it.

#include <cstdint>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace picasso::pauli {

/// Operators packed per 64-bit word in the 3-bit inverse-one-hot encoding.
inline constexpr std::size_t kOpsPerWord3 = 21;  // 21 * 3 = 63 bits used

/// Operators per word-plane in the symplectic encoding.
inline constexpr std::size_t kOpsPerWord2 = 64;

/// 3-bit code of one operator (I=000, X=110, Y=101, Z=011).
std::uint64_t inverse_one_hot_code(PauliOp op) noexcept;

/// Number of 64-bit words needed for `num_qubits` operators, 3-bit encoding.
constexpr std::size_t words_per_string3(std::size_t num_qubits) noexcept {
  return (num_qubits + kOpsPerWord3 - 1) / kOpsPerWord3;
}

/// Number of 64-bit words per plane, symplectic encoding.
constexpr std::size_t words_per_string2(std::size_t num_qubits) noexcept {
  return (num_qubits + kOpsPerWord2 - 1) / kOpsPerWord2;
}

/// Encodes a string into `out[0..words_per_string3)` (inverse one-hot).
void encode3(const PauliString& s, std::uint64_t* out);

/// Encodes into separate x/z planes of `words_per_string2` words each.
void encode2(const PauliString& s, std::uint64_t* x_out, std::uint64_t* z_out);

/// Decodes an inverse-one-hot encoded string.
PauliString decode3(const std::uint64_t* words, std::size_t num_qubits);

/// Anticommutation from two inverse-one-hot encoded strings of `words` words:
/// parity of popcount(a & b).
bool anticommute3(const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t words) noexcept;

/// Anticommutation from symplectic planes:
/// parity of popcount(ax & bz) + popcount(az & bx).
bool anticommute2(const std::uint64_t* ax, const std::uint64_t* az,
                  const std::uint64_t* bx, const std::uint64_t* bz,
                  std::size_t words) noexcept;

/// Character-by-character reference check (the "unencoded CPU" baseline the
/// paper reports a 1.4-2.0x speedup over).
bool anticommute_chars(const PauliString& a, const PauliString& b) noexcept;

}  // namespace picasso::pauli
