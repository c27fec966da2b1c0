#include "pauli/pauli_set.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace picasso::pauli {

PauliSet::PauliSet(const std::vector<PauliString>& strings,
                   std::vector<double> coefficients) {
  size_ = strings.size();
  if (size_ == 0) return;
  num_qubits_ = strings.front().num_qubits();
  for (const auto& s : strings) {
    if (s.num_qubits() != num_qubits_) {
      throw std::invalid_argument("PauliSet: inconsistent qubit counts");
    }
  }
  words3_ = words_per_string3(num_qubits_);
  words2_ = words_per_string2(num_qubits_);
  words3_data_.assign(size_ * words3_, 0);
  words2_data_.assign(size_ * 2 * words2_, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    encode3(strings[i], words3_data_.data() + i * words3_);
    encode2(strings[i], words2_data_.data() + (2 * i) * words2_,
            words2_data_.data() + (2 * i + 1) * words2_);
  }
  if (coefficients.empty()) {
    coefficients_.assign(size_, 1.0);
  } else {
    if (coefficients.size() != size_) {
      throw std::invalid_argument("PauliSet: coefficient count mismatch");
    }
    coefficients_ = std::move(coefficients);
  }
}

PauliString PauliSet::string(std::size_t i) const {
  return decode3(encoded3(i), num_qubits_);
}

std::uint64_t PauliSet::count_anticommuting_pairs() const {
  std::uint64_t count = 0;
#ifdef PICASSO_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : count)
#endif
  for (std::size_t i = 0; i < size_; ++i) {
    for (std::size_t j = i + 1; j < size_; ++j) {
      count += anticommute(i, j) ? 1 : 0;
    }
  }
  return count;
}

namespace {
constexpr std::uint64_t kMagic = 0x5041554c49534554ULL;  // "PAULISET"

/// Bit 3k of every 3-bit field of a word (k = 0..20).
constexpr std::uint64_t kFieldLowBits = 0x1249249249249249ULL;

/// Gathers bit 3k of `w` into bit k (k = 0..20): the inverse of a 3-way
/// bit interleave, in five shift-xor-mask steps.
constexpr std::uint64_t gather_every_third(std::uint64_t w) noexcept {
  w &= kFieldLowBits;
  w = (w ^ (w >> 2)) & 0x10c30c30c30c30c3ULL;
  w = (w ^ (w >> 4)) & 0x100f00f00f00f00fULL;
  w = (w ^ (w >> 8)) & 0x001f0000ff0000ffULL;
  w = (w ^ (w >> 16)) & 0x001f00000000ffffULL;
  w = (w ^ (w >> 32)) & 0x00000000001fffffULL;
  return w;
}
// X Z Y I (fields 3..0): z = bit 3k, x = bit 3k+2.
static_assert(gather_every_third(0b110'011'101'000) == 0b0110 &&
              gather_every_third(0b110'011'101'000 >> 2) == 0b1010);

[[noreturn]] void throw_truncated() {
  throw std::runtime_error("PauliSet::load_binary: truncated input");
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw_truncated();
  return value;
}

/// 3-bit words the records of `count` strings over `num_qubits` hold, after
/// checking that those records and their coefficients fit in the `available`
/// bytes that follow the header. Runs before any allocation, so a header
/// claiming more strings than the input carries (or a count whose byte size
/// would overflow) is rejected as truncated input.
std::size_t checked_record_words(std::uint64_t num_qubits,
                                 std::uint64_t count,
                                 std::uint64_t available) {
  const std::uint64_t words3 =
      num_qubits / kOpsPerWord3 + (num_qubits % kOpsPerWord3 != 0);
  // Cannot wrap: words3 < 2^64 / 21.
  const std::uint64_t record_bytes = (words3 + 1) * sizeof(std::uint64_t);
  if (count > available / record_bytes) throw_truncated();
  return static_cast<std::size_t>(count * words3);
}

/// Bytes left between the read position and the end of `in`; the maximum
/// when the stream cannot seek (then only the reads detect truncation).
std::uint64_t stream_bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here < 0) return std::numeric_limits<std::uint64_t>::max();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end < here) throw_truncated();
  return static_cast<std::uint64_t>(end - here);
}
}  // namespace

PauliSet PauliSet::from_encoded3(std::size_t num_qubits,
                                 std::vector<std::uint64_t> words3,
                                 std::vector<double> coefficients) {
  const std::size_t count = coefficients.size();
  const std::size_t w3 = words_per_string3(num_qubits);
  if (words3.size() != count * w3) {
    throw std::invalid_argument(
        "PauliSet::from_encoded3: word count does not match string count");
  }
  PauliSet out;
  if (count == 0) return out;
  const std::size_t w2 = words_per_string2(num_qubits);
  out.size_ = count;
  out.num_qubits_ = num_qubits;
  out.words3_ = w3;
  out.words2_ = w2;
  out.words3_data_ = std::move(words3);
  out.words2_data_.assign(count * 2 * w2, 0);
  out.coefficients_ = std::move(coefficients);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t* codes = out.words3_data_.data() + i * w3;
    std::uint64_t* x = out.words2_data_.data() + 2 * i * w2;
    std::uint64_t* z = x + w2;
    for (std::size_t j = 0; j < w3; ++j) {
      const std::size_t first = j * kOpsPerWord3;
      const std::size_t fields = std::min(kOpsPerWord3, num_qubits - first);
      const std::uint64_t word =
          codes[j] & ((std::uint64_t{1} << (3 * fields)) - 1);
      codes[j] = word;
      // Valid codes (000, 110, 101, 011) are exactly the even-parity ones.
      const std::uint64_t odd = (word ^ (word >> 1) ^ (word >> 2)) &
                                kFieldLowBits;
      if (odd != 0) {
        throw std::invalid_argument(
            "PauliSet: corrupt 3-bit code at string " + std::to_string(i) +
            ", qubit " +
            std::to_string(first + std::countr_zero(odd) / 3));
      }
      const std::uint64_t xs = gather_every_third(word >> 2);
      const std::uint64_t zs = gather_every_third(word);
      const std::size_t plane = first / kOpsPerWord2;
      const std::size_t shift = first % kOpsPerWord2;
      x[plane] |= xs << shift;
      z[plane] |= zs << shift;
      if (shift + kOpsPerWord3 > kOpsPerWord2 && plane + 1 < w2) {
        x[plane + 1] |= xs >> (kOpsPerWord2 - shift);
        z[plane + 1] |= zs >> (kOpsPerWord2 - shift);
      }
    }
  }
  return out;
}

void PauliSet::save_binary(std::ostream& out) const {
  write_pod(out, kMagic);
  write_pod(out, static_cast<std::uint64_t>(num_qubits_));
  write_pod(out, static_cast<std::uint64_t>(size_));
  out.write(reinterpret_cast<const char*>(words3_data_.data()),
            static_cast<std::streamsize>(words3_data_.size() *
                                         sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(coefficients_.data()),
            static_cast<std::streamsize>(coefficients_.size() * sizeof(double)));
}

void PauliSet::save_binary(std::span<std::uint8_t> out) const {
  if (out.size() < binary_size()) {
    throw std::invalid_argument("PauliSet::save_binary: buffer too small");
  }
  const std::uint64_t header[3] = {kMagic,
                                   static_cast<std::uint64_t>(num_qubits_),
                                   static_cast<std::uint64_t>(size_)};
  // Byte copies (not memcpy): an empty vector's data() may be null.
  std::uint8_t* at = std::copy_n(reinterpret_cast<const std::uint8_t*>(header),
                                 kBinaryHeaderBytes, out.data());
  at = std::copy_n(reinterpret_cast<const std::uint8_t*>(words3_data_.data()),
                   words3_data_.size() * sizeof(std::uint64_t), at);
  std::copy_n(reinterpret_cast<const std::uint8_t*>(coefficients_.data()),
              coefficients_.size() * sizeof(double), at);
}

PauliSet PauliSet::load_binary(std::istream& in) {
  if (read_pod<std::uint64_t>(in) != kMagic) {
    throw std::runtime_error("PauliSet::load_binary: bad magic");
  }
  const auto num_qubits = read_pod<std::uint64_t>(in);
  const auto count = read_pod<std::uint64_t>(in);
  const std::size_t words =
      checked_record_words(num_qubits, count, stream_bytes_left(in));
  if (count == 0) return PauliSet{};
  std::vector<std::uint64_t> words3(words);
  in.read(reinterpret_cast<char*>(words3.data()),
          static_cast<std::streamsize>(words * sizeof(std::uint64_t)));
  std::vector<double> coefs(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(coefs.data()),
          static_cast<std::streamsize>(coefs.size() * sizeof(double)));
  if (!in) throw_truncated();
  return from_encoded3(static_cast<std::size_t>(num_qubits), std::move(words3),
                       std::move(coefs));
}

PauliSet PauliSet::load_binary(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kBinaryHeaderBytes) throw_truncated();
  std::uint64_t header[3];
  std::memcpy(header, bytes.data(), kBinaryHeaderBytes);
  if (header[0] != kMagic) {
    throw std::runtime_error("PauliSet::load_binary: bad magic");
  }
  const std::uint64_t count = header[2];
  const std::size_t words =
      checked_record_words(header[1], count, bytes.size() - kBinaryHeaderBytes);
  if (count == 0) return PauliSet{};
  // Byte copies (not memcpy): words3 is empty when num_qubits is 0.
  const std::uint8_t* at = bytes.data() + kBinaryHeaderBytes;
  std::vector<std::uint64_t> words3(words);
  std::copy_n(at, words * sizeof(std::uint64_t),
              reinterpret_cast<std::uint8_t*>(words3.data()));
  at += words * sizeof(std::uint64_t);
  std::vector<double> coefs(static_cast<std::size_t>(count));
  std::copy_n(at, coefs.size() * sizeof(double),
              reinterpret_cast<std::uint8_t*>(coefs.data()));
  return from_encoded3(static_cast<std::size_t>(header[1]), std::move(words3),
                       std::move(coefs));
}

PauliSet PauliSet::prefix(std::size_t count) const {
  count = std::min(count, size_);
  PauliSet out;
  out.size_ = count;
  out.num_qubits_ = num_qubits_;
  out.words3_ = words3_;
  out.words2_ = words2_;
  out.words3_data_.assign(words3_data_.begin(),
                          words3_data_.begin() + count * words3_);
  out.words2_data_.assign(words2_data_.begin(),
                          words2_data_.begin() + count * 2 * words2_);
  out.coefficients_.assign(coefficients_.begin(),
                           coefficients_.begin() + count);
  return out;
}

void PauliSet::append(const PauliSet& other) {
  if (other.size_ == 0) return;
  if (size_ == 0) {
    *this = other;
    return;
  }
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("PauliSet::append: qubit count mismatch");
  }
  words3_data_.insert(words3_data_.end(), other.words3_data_.begin(),
                      other.words3_data_.end());
  words2_data_.insert(words2_data_.end(), other.words2_data_.begin(),
                      other.words2_data_.end());
  coefficients_.insert(coefficients_.end(), other.coefficients_.begin(),
                       other.coefficients_.end());
  size_ += other.size_;
}

PauliSet PauliSet::subset(const std::vector<std::uint32_t>& ids) const {
  PauliSet out;
  if (ids.empty()) return out;
  out.size_ = ids.size();
  out.num_qubits_ = num_qubits_;
  out.words3_ = words3_;
  out.words2_ = words2_;
  out.words3_data_.reserve(ids.size() * words3_);
  out.words2_data_.reserve(ids.size() * 2 * words2_);
  out.coefficients_.reserve(ids.size());
  for (std::uint32_t id : ids) {
    const auto w3 = words3_data_.begin() + id * words3_;
    out.words3_data_.insert(out.words3_data_.end(), w3, w3 + words3_);
    const auto w2 = words2_data_.begin() + id * 2 * words2_;
    out.words2_data_.insert(out.words2_data_.end(), w2, w2 + 2 * words2_);
    out.coefficients_.push_back(coefficients_[id]);
  }
  return out;
}

}  // namespace picasso::pauli
