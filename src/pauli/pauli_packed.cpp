#include "pauli/pauli_packed.hpp"

#include <stdexcept>

#include "pauli/encoding.hpp"
#include "pauli/pauli_set.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PICASSO_PACKED_HAVE_AVX2 1
#include <immintrin.h>
#else
#define PICASSO_PACKED_HAVE_AVX2 0
#endif

namespace picasso::pauli {

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Auto: return "auto";
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2: return "avx2";
  }
  return "?";
}

SimdLevel best_simd_level() noexcept {
#if PICASSO_PACKED_HAVE_AVX2
  return __builtin_cpu_supports("avx2") ? SimdLevel::Avx2 : SimdLevel::Scalar;
#else
  return SimdLevel::Scalar;
#endif
}

SimdLevel resolve_simd_level(SimdLevel requested) noexcept {
  const SimdLevel best = best_simd_level();
  if (requested == SimdLevel::Auto) return best;
  if (requested == SimdLevel::Avx2 && best != SimdLevel::Avx2) {
    return SimdLevel::Scalar;
  }
  return requested;
}

void make_swapped_record(const std::uint64_t* record, std::size_t words,
                         std::uint64_t* out) noexcept {
  for (std::size_t k = 0; k < words; ++k) {
    out[k] = record[words + k];          // z plane first ...
    out[words + k] = record[k];          // ... then x
  }
}

namespace {

// With u pre-swapped, anticommute(u, b) == parity(XOR_k(us[k] & rec_b[k]))
// over the full 2w-word records — the form every kernel below computes.

void block_scalar(const std::uint64_t* us, const std::uint64_t* records,
                  std::size_t words, const std::uint32_t* ids,
                  std::size_t count, std::uint8_t* out) {
  const std::size_t rw = 2 * words;
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t* rec = records + rw * ids[j];
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < rw; ++k) acc ^= rec[k] & us[k];
    out[j] = static_cast<std::uint8_t>(__builtin_parityll(acc));
  }
}

#if PICASSO_PACKED_HAVE_AVX2

// w == 1 (<= 64 qubits, records of 2 words): four candidates per iteration.
// Two ymm registers hold four [x|z] records; AND with the tiled swapped-u
// pattern, XOR adjacent lanes for the per-record fold, then a vectorized
// parity reduction and a movemask deliver all four answers at once.
__attribute__((target("avx2"))) void block_avx2_w1(
    const std::uint64_t* us, const std::uint64_t* records,
    std::size_t /*words*/, const std::uint32_t* ids, std::size_t count,
    std::uint8_t* out) {
  const __m256i pat = _mm256_set_epi64x(
      static_cast<long long>(us[1]), static_cast<long long>(us[0]),
      static_cast<long long>(us[1]), static_cast<long long>(us[0]));
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m128i r0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(records + 2 * ids[j]));
    const __m128i r1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(records + 2 * ids[j + 1]));
    const __m128i r2 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(records + 2 * ids[j + 2]));
    const __m128i r3 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(records + 2 * ids[j + 3]));
    const __m256i a01 = _mm256_and_si256(_mm256_set_m128i(r1, r0), pat);
    const __m256i a23 = _mm256_and_si256(_mm256_set_m128i(r3, r2), pat);
    // Lane pairs (0,1) and (2,3) are one record each; XOR them together so
    // every lane carries its record's fold word.
    const __m256i s01 =
        _mm256_xor_si256(a01, _mm256_permute4x64_epi64(a01, 0xB1));
    const __m256i s23 =
        _mm256_xor_si256(a23, _mm256_permute4x64_epi64(a23, 0xB1));
    // [p0, p2, p1, p3] lane order after the unpack.
    __m256i m = _mm256_unpacklo_epi64(s01, s23);
    m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 32));
    m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 16));
    m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 8));
    m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 4));
    m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 2));
    m = _mm256_xor_si256(m, _mm256_srli_epi64(m, 1));
    m = _mm256_slli_epi64(m, 63);
    const int bits = _mm256_movemask_pd(_mm256_castsi256_pd(m));
    out[j] = static_cast<std::uint8_t>(bits & 1);
    out[j + 1] = static_cast<std::uint8_t>((bits >> 2) & 1);
    out[j + 2] = static_cast<std::uint8_t>((bits >> 1) & 1);
    out[j + 3] = static_cast<std::uint8_t>((bits >> 3) & 1);
  }
  for (; j < count; ++j) {
    const std::uint64_t* rec = records + 2 * ids[j];
    out[j] = static_cast<std::uint8_t>(
        __builtin_parityll((rec[0] & us[0]) ^ (rec[1] & us[1])));
  }
}

// w >= 2 (records of >= 4 words): vectorize the word loop within each
// record, four words per step, scalar tail for the remainder.
__attribute__((target("avx2"))) void block_avx2_wide(
    const std::uint64_t* us, const std::uint64_t* records, std::size_t words,
    const std::uint32_t* ids, std::size_t count, std::uint8_t* out) {
  const std::size_t rw = 2 * words;
  const std::size_t vec_end = rw & ~std::size_t{3};
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t* rec = records + rw * ids[j];
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < vec_end; k += 4) {
      const __m256i r =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rec + k));
      const __m256i u =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(us + k));
      acc = _mm256_xor_si256(acc, _mm256_and_si256(r, u));
    }
    std::uint64_t tail = 0;
    for (std::size_t k = vec_end; k < rw; ++k) tail ^= rec[k] & us[k];
    const __m128i h = _mm_xor_si128(_mm256_castsi256_si128(acc),
                                    _mm256_extracti128_si256(acc, 1));
    const std::uint64_t fold =
        static_cast<std::uint64_t>(_mm_extract_epi64(h, 0)) ^
        static_cast<std::uint64_t>(_mm_extract_epi64(h, 1)) ^ tail;
    out[j] = static_cast<std::uint8_t>(__builtin_parityll(fold));
  }
}

#endif  // PICASSO_PACKED_HAVE_AVX2

}  // namespace

AnticommuteBlockFn resolve_block_kernel(std::size_t words,
                                        SimdLevel level) noexcept {
  level = resolve_simd_level(level);
#if PICASSO_PACKED_HAVE_AVX2
  if (level == SimdLevel::Avx2) {
    if (words == 1) return &block_avx2_w1;
    if (words >= 2) return &block_avx2_wide;
  }
#endif
  (void)level;
  return &block_scalar;
}

PauliString decode_record(const std::uint64_t* record, std::size_t words,
                          std::size_t num_qubits) {
  PauliString s(num_qubits);
  const std::uint64_t* z = record + words;
  for (std::size_t q = 0; q < num_qubits; ++q) {
    const bool xb = (record[q / 64] >> (q % 64)) & 1;
    const bool zb = (z[q / 64] >> (q % 64)) & 1;
    s.set_op(q, xb ? (zb ? PauliOp::Y : PauliOp::X)
                   : (zb ? PauliOp::Z : PauliOp::I));
  }
  return s;
}

// ---------------------------------------------------------------------------
// PackedPauliSet.

PackedPauliSet::PackedPauliSet(const std::vector<PauliString>& strings) {
  size_ = strings.size();
  if (size_ == 0) return;
  num_qubits_ = strings.front().num_qubits();
  for (const auto& s : strings) {
    if (s.num_qubits() != num_qubits_) {
      throw std::invalid_argument("PackedPauliSet: inconsistent qubit counts");
    }
  }
  words_ = packed_words(num_qubits_);
  data_.assign(size_ * 2 * words_, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    std::uint64_t* x = data_.data() + i * 2 * words_;
    encode2(strings[i], x, x + words_);
  }
}

PackedPauliSet::PackedPauliSet(const PauliSet& set)
    : PackedPauliSet(set.packed()) {}

PackedPauliSet PackedPauliSet::from_raw(std::size_t num_qubits,
                                        std::size_t size,
                                        std::vector<std::uint64_t> words) {
  PackedPauliSet out;
  out.num_qubits_ = num_qubits;
  out.size_ = size;
  out.words_ = packed_words(num_qubits);
  if (words.size() != size * 2 * out.words_) {
    throw std::invalid_argument("PackedPauliSet::from_raw: word count mismatch");
  }
  out.data_ = std::move(words);
  return out;
}

void PackedPauliSet::append(const PackedPauliSet& other) {
  if (other.size_ == 0) return;
  if (size_ == 0) {
    *this = other;
    return;
  }
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("PackedPauliSet::append: qubit count mismatch");
  }
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  size_ += other.size_;
}

}  // namespace picasso::pauli
