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
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      count += anticommute(i, j) ? 1 : 0;
    }
  }
  return count;
}

PauliSet::PauliSet(PackedPauliSet records, std::vector<double> coefficients)
    : records_(std::move(records)), coefficients_(std::move(coefficients)) {
  if (coefficients_.size() != records_.size()) {
    throw std::invalid_argument("PauliSet: coefficient count mismatch");
  }
}

// The byte formats are little-endian, and the codec below moves plane words
// and coefficients with plain loads and stores.
static_assert(std::endian::native == std::endian::little,
              "the record layout assumes a little-endian host");

namespace {

/// The low `bytes` bytes of a word (bytes <= 8).
constexpr std::uint64_t low_bytes(std::size_t bytes) noexcept {
  return bytes >= 8 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << (8 * bytes)) - 1;
}

[[noreturn]] void throw_padding(std::size_t record, std::size_t num_qubits) {
  throw std::runtime_error("PauliSet: corrupt record " +
                           std::to_string(record) +
                           ": a plane bit is set at or above qubit " +
                           std::to_string(num_qubits));
}

[[noreturn]] void throw_truncated() {
  throw std::runtime_error("PauliSet::load_binary: truncated input");
}

/// Bytes the records of `count` strings over `num_qubits` occupy after the
/// header, after checking that they fit in the `available` bytes that
/// follow it. Runs before any allocation, so a header claiming more strings
/// than the input carries (or a count whose byte size would overflow) is
/// rejected as truncated input.
std::size_t checked_record_bytes(std::uint64_t num_qubits,
                                 std::uint64_t count,
                                 std::uint64_t available) {
  // Cannot wrap: a trimmed plane is at most 2^61 bytes.
  const std::uint64_t record_bytes =
      pset_record_bytes(static_cast<std::size_t>(num_qubits));
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

/// Writes `count` records to `out` (unaligned): the planes of the [x|z]
/// words at `planes` and the coefficients at `coefs`. Padding plane bits are
/// clear in every PackedPauliSet, so none is set.
void encode_records(const std::uint64_t* planes, const double* coefs,
                    std::size_t count, std::size_t num_qubits,
                    std::uint8_t* out) noexcept {
  const std::size_t b = plane_bytes(num_qubits);
  const std::size_t record = pset_record_bytes(num_qubits);
  const std::size_t w = packed_words(num_qubits);
  if (w == 1) {
    // One word per plane: three 8-byte stores, x then z then the
    // coefficient. Each ends inside the record, and each overwrites only
    // the zero padding bytes of the one before.
    for (std::size_t i = 0; i < count; ++i, planes += 2, out += record) {
      std::memcpy(out, planes, sizeof(std::uint64_t));
      std::memcpy(out + b, planes + 1, sizeof(std::uint64_t));
      std::memcpy(out + 2 * b, coefs + i, sizeof(double));
    }
    return;
  }
  // Zero qubits (w == 0): no planes, and `planes` may be null.
  for (std::size_t i = 0; i < count; ++i, planes += 2 * w, out += record) {
    if (w > 0) {
      std::memcpy(out, planes, b);
      std::memcpy(out + b, planes + w, b);
    }
    std::memcpy(out + 2 * b, coefs + i, sizeof(double));
  }
}
}  // namespace

void decode_records(const std::uint8_t* in, std::size_t count,
                    std::size_t num_qubits, std::uint64_t* planes,
                    double* coefs) {
  const std::size_t b = plane_bytes(num_qubits);
  const std::size_t record = pset_record_bytes(num_qubits);
  const std::size_t w = packed_words(num_qubits);
  // Bits of the last plane word at or above num_qubits: zero in every
  // valid record.
  const std::uint64_t padding =
      num_qubits % 64 == 0 ? 0 : ~std::uint64_t{0} << (num_qubits % 64);
  if (w == 1) {
    // The mirror of encode_records: three 8-byte loads, each ending inside
    // the record; the x and z loads keep their plane's b bytes.
    const std::uint64_t keep = low_bytes(b);
    for (std::size_t i = 0; i < count; ++i, planes += 2, in += record) {
      std::uint64_t x, z;
      std::memcpy(&x, in, sizeof(x));
      std::memcpy(&z, in + b, sizeof(z));
      x &= keep;
      z &= keep;
      if (((x | z) & padding) != 0) throw_padding(i, num_qubits);
      planes[0] = x;
      planes[1] = z;
      if (coefs != nullptr) std::memcpy(coefs + i, in + 2 * b, sizeof(double));
    }
    return;
  }
  // Zero qubits (w == 0): no planes, and `planes` may be null.
  for (std::size_t i = 0; i < count; ++i, planes += 2 * w, in += record) {
    if (w > 0) {
      std::fill_n(planes, 2 * w, std::uint64_t{0});
      std::memcpy(planes, in, b);
      std::memcpy(planes + w, in + b, b);
      if (((planes[w - 1] | planes[2 * w - 1]) & padding) != 0) {
        throw_padding(i, num_qubits);
      }
    }
    if (coefs != nullptr) std::memcpy(coefs + i, in + 2 * b, sizeof(double));
  }
}

PauliSet PauliSet::from_records(std::size_t num_qubits, std::size_t count,
                                const std::uint8_t* records) {
  if (count == 0) return PauliSet{};
  std::vector<std::uint64_t> planes(count * 2 * packed_words(num_qubits));
  std::vector<double> coefs(count);
  decode_records(records, count, num_qubits, planes.data(), coefs.data());
  return PauliSet(PackedPauliSet::from_raw(num_qubits, count, std::move(planes)),
                  std::move(coefs));
}

void PauliSet::write_records(std::ostream& out) const {
  constexpr std::size_t kBatch = 1024;
  const std::size_t record = pset_record_bytes(num_qubits());
  std::vector<std::uint8_t> batch(std::min(size(), kBatch) * record);
  for (std::size_t i = 0; i < size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, size() - i);
    encode_records(records_.record(i), coefficients_.data() + i, n,
                   num_qubits(), batch.data());
    out.write(reinterpret_cast<const char*>(batch.data()),
              static_cast<std::streamsize>(n * record));
  }
}

void PauliSet::save_binary(std::ostream& out) const {
  const std::uint64_t header[3] = {kBinaryMagic,
                                   static_cast<std::uint64_t>(num_qubits()),
                                   static_cast<std::uint64_t>(size())};
  out.write(reinterpret_cast<const char*>(header), kBinaryHeaderBytes);
  write_records(out);
}

void PauliSet::save_binary(std::span<std::uint8_t> out) const {
  if (out.size() < binary_size()) {
    throw std::invalid_argument("PauliSet::save_binary: buffer too small");
  }
  const std::uint64_t header[3] = {kBinaryMagic,
                                   static_cast<std::uint64_t>(num_qubits()),
                                   static_cast<std::uint64_t>(size())};
  std::memcpy(out.data(), header, kBinaryHeaderBytes);
  encode_records(records_.record(0), coefficients_.data(), size(),
                 num_qubits(), out.data() + kBinaryHeaderBytes);
}

PauliSet PauliSet::load_binary(std::istream& in) {
  std::uint64_t header[3];
  in.read(reinterpret_cast<char*>(header), kBinaryHeaderBytes);
  if (!in) throw_truncated();
  if (header[0] != kBinaryMagic) {
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
  if (header[0] != kBinaryMagic) {
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
