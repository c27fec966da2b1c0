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
                   std::vector<double> coefficients)
    : records_(strings) {
  if (strings.empty()) return;
  if (coefficients.empty()) {
    coefficients_.assign(strings.size(), 1.0);
  } else {
    if (coefficients.size() != strings.size()) {
      throw std::invalid_argument("PauliSet: coefficient count mismatch");
    }
    coefficients_ = std::move(coefficients);
  }
}

std::uint64_t PauliSet::count_anticommuting_pairs() const {
  std::uint64_t count = 0;
#ifdef PICASSO_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : count)
#endif
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
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

/// Spreads bit k of `w` to bit 3k (k = 0..20): gather_every_third's
/// inverse, the same masks in reverse order.
constexpr std::uint64_t spread_every_third(std::uint64_t w) noexcept {
  w &= 0x00000000001fffffULL;
  w = (w | (w << 32)) & 0x001f00000000ffffULL;
  w = (w | (w << 16)) & 0x001f0000ff0000ffULL;
  w = (w | (w << 8)) & 0x100f00f00f00f00fULL;
  w = (w | (w << 4)) & 0x10c30c30c30c30c3ULL;
  w = (w | (w << 2)) & kFieldLowBits;
  return w;
}
// X Z Y I (fields 3..0): z = bit 3k, x = bit 3k+2.
static_assert(gather_every_third(0b110'011'101'000) == 0b0110 &&
              gather_every_third(0b110'011'101'000 >> 2) == 0b1010);
static_assert(spread_every_third(0b0110) == 0b000'001'001'000 &&
              spread_every_third(0x1fffff) == kFieldLowBits);

/// The 3-bit word of up to 21 operators given their plane bits (bit k of
/// `xs`/`zs` is operator k; higher bits are ignored): x to bit 3k+2, z to
/// bit 3k and x^z to bit 3k+1 — X=110, Y=101, Z=011, I=000.
constexpr std::uint64_t code3(std::uint64_t xs, std::uint64_t zs) noexcept {
  const std::uint64_t x = spread_every_third(xs);
  const std::uint64_t z = spread_every_third(zs);
  return (x << 2) | ((x ^ z) << 1) | z;
}
static_assert(code3(0b1010, 0b0110) == 0b110'011'101'000);  // X Z Y I

/// Bits [first, first + 21) of the `w`-word plane `plane` in the low bits
/// (bits above them may be set).
std::uint64_t plane_bits(const std::uint64_t* plane, std::size_t w,
                         std::size_t first) noexcept {
  const std::size_t word = first / kOpsPerWord2;
  const std::size_t shift = first % kOpsPerWord2;
  std::uint64_t bits = plane[word] >> shift;
  if (shift + kOpsPerWord3 > kOpsPerWord2 && word + 1 < w) {
    bits |= plane[word + 1] << (kOpsPerWord2 - shift);
  }
  return bits;
}

/// Writes the 3-bit words of the `count` [x|z] records at `recs` (`w` words
/// per plane) over `num_qubits` to `out`, which need not be aligned.
/// Padding fields come out 000 because padding plane bits are clear.
void encode_records3(const std::uint64_t* recs, std::size_t count,
                     std::size_t w, std::size_t num_qubits,
                     std::uint8_t* out) noexcept {
  const std::size_t w3 = words_per_string3(num_qubits);
  for (std::size_t i = 0; i < count; ++i, recs += 2 * w) {
    for (std::size_t j = 0; j < w3; ++j, out += sizeof(std::uint64_t)) {
      const std::size_t first = j * kOpsPerWord3;
      const std::uint64_t word = code3(plane_bits(recs, w, first),
                                       plane_bits(recs + w, w, first));
      std::memcpy(out, &word, sizeof(word));
    }
  }
}

[[noreturn]] void throw_truncated() {
  throw std::runtime_error("PauliSet::load_binary: truncated input");
}

/// Bytes the records of `count` strings over `num_qubits` occupy after the
/// header (3-bit words + coefficients), after checking that they fit in
/// the `available` bytes that follow the header. Runs before any
/// allocation, so a header claiming more strings than the input carries
/// (or a count whose byte size would overflow) is rejected as truncated
/// input.
std::size_t checked_record_bytes(std::uint64_t num_qubits,
                                 std::uint64_t count,
                                 std::uint64_t available) {
  const std::uint64_t words3 =
      num_qubits / kOpsPerWord3 + (num_qubits % kOpsPerWord3 != 0);
  // Cannot wrap: words3 < 2^64 / 21.
  const std::uint64_t record_bytes = (words3 + 1) * sizeof(std::uint64_t);
  if (count > available / record_bytes) throw_truncated();
  return static_cast<std::size_t>(count * record_bytes);
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

PauliSet PauliSet::from_records(std::size_t num_qubits, std::size_t count,
                                const std::uint8_t* records) {
  PauliSet out;
  if (count == 0) return out;
  const std::size_t w3 = words_per_string3(num_qubits);
  const std::size_t w = packed_words(num_qubits);
  std::vector<std::uint64_t> data(count * 2 * w, 0);
  const std::uint8_t* in = records;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t* x = data.data() + 2 * i * w;
    std::uint64_t* z = x + w;
    for (std::size_t j = 0; j < w3; ++j, in += sizeof(std::uint64_t)) {
      const std::size_t first = j * kOpsPerWord3;
      const std::size_t fields = std::min(kOpsPerWord3, num_qubits - first);
      std::uint64_t word;
      std::memcpy(&word, in, sizeof(word));
      word &= (std::uint64_t{1} << (3 * fields)) - 1;
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
      if (shift + kOpsPerWord3 > kOpsPerWord2 && plane + 1 < w) {
        x[plane + 1] |= xs >> (kOpsPerWord2 - shift);
        z[plane + 1] |= zs >> (kOpsPerWord2 - shift);
      }
    }
  }
  out.records_ = PackedPauliSet::from_raw(num_qubits, count, std::move(data));
  out.coefficients_.resize(count);
  std::memcpy(out.coefficients_.data(), in, count * sizeof(double));
  return out;
}

void PauliSet::write_words3(std::ostream& out) const {
  // In batches of strings, so the words never sit resident all at once.
  constexpr std::size_t kBatch = 1024;
  const std::size_t string_bytes =
      words_per_string3(num_qubits()) * sizeof(std::uint64_t);
  std::vector<std::uint8_t> batch(std::min(size(), kBatch) * string_bytes);
  for (std::size_t i = 0; i < size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, size() - i);
    encode_records3(records_.record(i), n, records_.words(), num_qubits(),
                    batch.data());
    out.write(reinterpret_cast<const char*>(batch.data()),
              static_cast<std::streamsize>(n * string_bytes));
  }
}

void PauliSet::save_binary(std::ostream& out) const {
  const std::uint64_t header[3] = {kMagic,
                                   static_cast<std::uint64_t>(num_qubits()),
                                   static_cast<std::uint64_t>(size())};
  out.write(reinterpret_cast<const char*>(header), kBinaryHeaderBytes);
  write_words3(out);
  out.write(reinterpret_cast<const char*>(coefficients_.data()),
            static_cast<std::streamsize>(coefficients_.size() * sizeof(double)));
}

void PauliSet::save_binary(std::span<std::uint8_t> out) const {
  if (out.size() < binary_size()) {
    throw std::invalid_argument("PauliSet::save_binary: buffer too small");
  }
  const std::uint64_t header[3] = {kMagic,
                                   static_cast<std::uint64_t>(num_qubits()),
                                   static_cast<std::uint64_t>(size())};
  std::uint8_t* at = out.data();
  std::memcpy(at, header, kBinaryHeaderBytes);
  at += kBinaryHeaderBytes;
  encode_records3(records_.record(0), size(), records_.words(), num_qubits(),
                  at);
  at += size() * words_per_string3(num_qubits()) * sizeof(std::uint64_t);
  // Byte copy (not memcpy): an empty vector's data() may be null.
  std::copy_n(reinterpret_cast<const std::uint8_t*>(coefficients_.data()),
              coefficients_.size() * sizeof(double), at);
}

PauliSet PauliSet::load_binary(std::istream& in) {
  std::uint64_t header[3];
  in.read(reinterpret_cast<char*>(header), kBinaryHeaderBytes);
  if (!in) throw_truncated();
  if (header[0] != kMagic) {
    throw std::runtime_error("PauliSet::load_binary: bad magic");
  }
  const std::size_t bytes =
      checked_record_bytes(header[1], header[2], stream_bytes_left(in));
  std::vector<std::uint8_t> records(bytes);
  in.read(reinterpret_cast<char*>(records.data()),
          static_cast<std::streamsize>(bytes));
  if (!in) throw_truncated();
  return from_records(static_cast<std::size_t>(header[1]),
                      static_cast<std::size_t>(header[2]), records.data());
}

PauliSet PauliSet::load_binary(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kBinaryHeaderBytes) throw_truncated();
  std::uint64_t header[3];
  std::memcpy(header, bytes.data(), kBinaryHeaderBytes);
  if (header[0] != kMagic) {
    throw std::runtime_error("PauliSet::load_binary: bad magic");
  }
  checked_record_bytes(header[1], header[2],
                       bytes.size() - kBinaryHeaderBytes);
  return from_records(static_cast<std::size_t>(header[1]),
                      static_cast<std::size_t>(header[2]),
                      bytes.data() + kBinaryHeaderBytes);
}

PauliSet PauliSet::prefix(std::size_t count) const {
  count = std::min(count, size());
  const PackedView v = packed_view();
  PauliSet out;
  out.records_ = PackedPauliSet::from_raw(
      num_qubits(), count,
      std::vector<std::uint64_t>(v.data, v.data + count * v.record_words()));
  out.coefficients_.assign(coefficients_.begin(),
                           coefficients_.begin() + count);
  return out;
}

void PauliSet::append(const PauliSet& other) {
  records_.append(other.records_);
  coefficients_.insert(coefficients_.end(), other.coefficients_.begin(),
                       other.coefficients_.end());
}

PauliSet PauliSet::subset(const std::vector<std::uint32_t>& ids) const {
  PauliSet out;
  if (ids.empty()) return out;
  const PackedView v = packed_view();
  std::vector<std::uint64_t> data;
  data.reserve(ids.size() * v.record_words());
  out.coefficients_.reserve(ids.size());
  for (std::uint32_t id : ids) {
    data.insert(data.end(), v.record(id), v.record(id) + v.record_words());
    out.coefficients_.push_back(coefficients_[id]);
  }
  out.records_ =
      PackedPauliSet::from_raw(num_qubits(), ids.size(), std::move(data));
  return out;
}

}  // namespace picasso::pauli
