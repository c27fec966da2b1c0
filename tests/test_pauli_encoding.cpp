// Tests for the bit encodings of §IV-A: the inverse-one-hot 3-bit packing
// (X=110, Y=101, Z=011, I=000) and the symplectic 2-bit planes PauliSet
// keeps resident, and for the record layout every byte format uses. The
// central properties: both encoded anticommutation kernels agree with the
// character-comparison reference on every input, across word boundaries,
// and every writer of the record layout emits exactly the trimmed planes
// and coefficient a reference built from the symbolic strings does.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "api/session.hpp"
#include "pauli/encoding.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/rng.hpp"

namespace pp = picasso::pauli;

namespace {
pp::PauliString random_string(std::size_t n, picasso::util::Xoshiro256& rng) {
  pp::PauliString s(n);
  for (std::size_t q = 0; q < n; ++q) {
    s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
  }
  return s;
}

pp::PauliSet random_set(std::size_t count, std::size_t n, std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  std::vector<double> coefs;
  for (std::size_t i = 0; i < count; ++i) {
    strings.push_back(random_string(n, rng));
    coefs.push_back(rng.uniform() - 0.5);
  }
  return pp::PauliSet(strings, coefs);
}

std::vector<std::uint8_t> saved(const pp::PauliSet& set) {
  std::vector<std::uint8_t> bytes(set.binary_size());
  set.save_binary(bytes);
  return bytes;
}

pp::PauliSet load_stream(const std::vector<std::uint8_t>& bytes) {
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  return pp::PauliSet::load_binary(in);
}

/// Flips plane bit `qubit` (which may lie in the padding above
/// num_qubits) of string `i`'s x or z plane in save_binary bytes.
void flip_plane_bit(std::vector<std::uint8_t>& bytes, const pp::PauliSet& set,
                    std::size_t i, bool z_plane, std::size_t qubit) {
  const std::size_t b = pp::plane_bytes(set.num_qubits());
  const std::size_t at = 3 * sizeof(std::uint64_t) +
                         i * pp::pset_record_bytes(set.num_qubits()) +
                         (z_plane ? b : 0) + qubit / 8;
  bytes[at] ^= static_cast<std::uint8_t>(1u << (qubit % 8));
}

/// Word-for-word equality of the planes, the coefficients and the
/// fingerprint.
void expect_same_set(const pp::PauliSet& got, const pp::PauliSet& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.num_qubits(), want.num_qubits());
  const pp::PackedView a = got.packed_view(), b = want.packed_view();
  ASSERT_EQ(a.words, b.words);
  for (std::size_t k = 0; k < a.size * a.record_words(); ++k) {
    ASSERT_EQ(a.data[k], b.data[k]) << "plane word " << k;
  }
  EXPECT_EQ(got.coefficients(), want.coefficients());
  const picasso::core::PicassoParams params;
  EXPECT_EQ(picasso::api::problem_fingerprint(got, params),
            picasso::api::problem_fingerprint(want, params));
}

constexpr std::size_t kQubitCounts[] = {1,  20, 21, 22,  42, 63,
                                        64, 65, 85, 128, 130};

constexpr std::uint64_t kSetMagic = 0x5041554c49585a31ULL;     // "PAULIXZ1"
constexpr std::uint64_t kAppendMagic = 0x5041554c49415050ULL;  // "PAULIAPP"

/// Appends the `bytes` bytes at `data` to `out` (host order: the
/// little-endian order the formats assume).
void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t bytes) {
  const auto* at = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), at, at + bytes);
}

/// The bytes every writer must produce for strings [begin, end) of `set`
/// after `header`: the header words, then per string its x plane and its z
/// plane (bit q set where operator q is X or Y, resp. Z or Y), each
/// ceil(q / 8) bytes, then its coefficient — built from the symbolic
/// strings, not from the planes the writers read.
std::vector<std::uint8_t> reference_block(
    const std::vector<std::uint64_t>& header, const pp::PauliSet& set,
    std::size_t begin, std::size_t end) {
  const std::size_t n = set.num_qubits();
  const std::size_t b = (n + 7) / 8;
  std::vector<std::uint8_t> out;
  append_bytes(out, header.data(), header.size() * sizeof(std::uint64_t));
  for (std::size_t i = begin; i < end; ++i) {
    const pp::PauliString s = set.string(i);
    std::vector<std::uint8_t> x(b, 0), z(b, 0);
    for (std::size_t q = 0; q < n; ++q) {
      const pp::PauliOp op = s.op(q);
      const auto bit = static_cast<std::uint8_t>(1u << (q % 8));
      if (op == pp::PauliOp::X || op == pp::PauliOp::Y) x[q / 8] |= bit;
      if (op == pp::PauliOp::Z || op == pp::PauliOp::Y) z[q / 8] |= bit;
    }
    out.insert(out.end(), x.begin(), x.end());
    out.insert(out.end(), z.begin(), z.end());
    append_bytes(out, set.coefficients().data() + i, sizeof(double));
  }
  return out;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// `bytes[at, at + size)`, clamped to the bytes present.
std::vector<std::uint8_t> slice_of(const std::vector<std::uint8_t>& bytes,
                                   std::size_t at, std::size_t size) {
  at = std::min(at, bytes.size());
  return {bytes.begin() + at,
          bytes.begin() + std::min(bytes.size(), at + size)};
}
}  // namespace

TEST(Encoding, InverseOneHotCodes) {
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::I), 0b000u);
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::X), 0b110u);
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::Y), 0b101u);
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::Z), 0b011u);
}

TEST(Encoding, PairwiseAndPopcountParityMatchesAnticommutation) {
  // The defining property of the encoding: popcount(code(a) & code(b)) is
  // odd exactly when a and b anticommute (distinct non-identity operators).
  using Op = pp::PauliOp;
  for (Op a : {Op::I, Op::X, Op::Y, Op::Z}) {
    for (Op b : {Op::I, Op::X, Op::Y, Op::Z}) {
      const auto both =
          pp::inverse_one_hot_code(a) & pp::inverse_one_hot_code(b);
      const bool odd = (__builtin_popcountll(both) & 1) != 0;
      EXPECT_EQ(odd, pp::anticommutes(a, b))
          << pp::to_char(a) << " vs " << pp::to_char(b);
    }
  }
}

TEST(Encoding, WordsPerString) {
  EXPECT_EQ(pp::words_per_string3(1), 1u);
  EXPECT_EQ(pp::words_per_string3(21), 1u);
  EXPECT_EQ(pp::words_per_string3(22), 2u);
  EXPECT_EQ(pp::words_per_string3(42), 2u);
  EXPECT_EQ(pp::words_per_string3(43), 3u);
  EXPECT_EQ(pp::words_per_string2(64), 1u);
  EXPECT_EQ(pp::words_per_string2(65), 2u);
}

TEST(Encoding, EncodeDecodeRoundTrip) {
  picasso::util::Xoshiro256 rng(7);
  for (std::size_t n : {1u, 4u, 20u, 21u, 22u, 40u, 63u, 64u, 65u, 100u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto s = random_string(n, rng);
      std::vector<std::uint64_t> words(pp::words_per_string3(n));
      pp::encode3(s, words.data());
      EXPECT_EQ(pp::decode3(words.data(), n), s) << "n=" << n;
    }
  }
}

TEST(Encoding, DecodeRejectsCorruptWords) {
  std::vector<std::uint64_t> words{0b111};  // not a valid op code
  EXPECT_THROW(pp::decode3(words.data(), 1), std::invalid_argument);
}

// The key cross-kernel agreement property, swept over qubit counts that
// stress word boundaries of both encodings.
class EncodingAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(EncodingAgreement, AllKernelsAgree) {
  const auto [n, seed] = GetParam();
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (int i = 0; i < 24; ++i) strings.push_back(random_string(n, rng));
  const pp::PauliSet set(strings);
  const std::size_t w3 = pp::words_per_string3(n);
  std::vector<std::uint64_t> words3(strings.size() * w3);
  for (std::size_t i = 0; i < strings.size(); ++i) {
    pp::encode3(strings[i], words3.data() + i * w3);
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set.size(); ++j) {
      const bool reference = strings[i].anticommutes_with(strings[j]);
      EXPECT_EQ(set.anticommute(i, j), reference) << "n=" << n;
      EXPECT_EQ(pp::anticommute3(words3.data() + i * w3,
                                 words3.data() + j * w3, w3),
                reference)
          << "n=" << n;
      EXPECT_EQ(set.anticommute_naive(i, j), reference) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    QubitCountsAndSeeds, EncodingAgreement,
    ::testing::Combine(::testing::Values(1, 2, 8, 21, 22, 42, 43, 64, 65, 70),
                       ::testing::Values(1u, 99u)));

TEST(PauliSet, ConstructionAndAccessors) {
  const std::vector<pp::PauliString> strings{pp::PauliString::parse("XX"),
                                             pp::PauliString::parse("YZ")};
  const pp::PauliSet set(strings, {0.5, -1.5});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.num_qubits(), 2u);
  EXPECT_EQ(set.string(0).to_string(), "XX");
  EXPECT_EQ(set.string(1).to_string(), "YZ");
  EXPECT_DOUBLE_EQ(set.coefficient(1), -1.5);
  EXPECT_GT(set.logical_bytes(), 0u);
}

TEST(PauliSet, DefaultCoefficientsAreOne) {
  const pp::PauliSet set({pp::PauliString::parse("X")});
  EXPECT_DOUBLE_EQ(set.coefficient(0), 1.0);
}

TEST(PauliSet, RejectsMixedWidthsAndBadCoefficients) {
  const std::vector<pp::PauliString> mixed{pp::PauliString::parse("X"),
                                           pp::PauliString::parse("XY")};
  EXPECT_THROW(pp::PauliSet{mixed}, std::invalid_argument);
  const std::vector<pp::PauliString> ok{pp::PauliString::parse("X")};
  EXPECT_THROW(pp::PauliSet(ok, {1.0, 2.0}), std::invalid_argument);
}

TEST(PauliSet, CountAnticommutingPairsMatchesBruteForce) {
  picasso::util::Xoshiro256 rng(5);
  std::vector<pp::PauliString> strings;
  for (int i = 0; i < 40; ++i) strings.push_back(random_string(6, rng));
  const pp::PauliSet set(strings);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < strings.size(); ++i) {
    for (std::size_t j = i + 1; j < strings.size(); ++j) {
      expected += strings[i].anticommutes_with(strings[j]) ? 1 : 0;
    }
  }
  EXPECT_EQ(set.count_anticommuting_pairs(), expected);
}

TEST(PauliSet, SubsetPreservesStringsAndCoefficients) {
  std::vector<pp::PauliString> strings{
      pp::PauliString::parse("XI"), pp::PauliString::parse("YI"),
      pp::PauliString::parse("ZI"), pp::PauliString::parse("IZ")};
  const pp::PauliSet set(strings, {1, 2, 3, 4});
  const pp::PauliSet sub = set.subset({1, 3});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.string(0).to_string(), "YI");
  EXPECT_EQ(sub.string(1).to_string(), "IZ");
  EXPECT_DOUBLE_EQ(sub.coefficient(0), 2.0);
  EXPECT_DOUBLE_EQ(sub.coefficient(1), 4.0);
}

TEST(PauliSet, BinarySaveLoadRoundTrip) {
  picasso::util::Xoshiro256 rng(77);
  std::vector<pp::PauliString> strings;
  std::vector<double> coefs;
  for (int i = 0; i < 33; ++i) {
    strings.push_back(random_string(25, rng));  // a partial last plane byte
    coefs.push_back(rng.uniform() - 0.5);
  }
  const pp::PauliSet original(strings, coefs);
  std::stringstream buffer;
  original.save_binary(buffer);
  const pp::PauliSet loaded = pp::PauliSet::load_binary(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.num_qubits(), original.num_qubits());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.string(i), original.string(i));
    EXPECT_DOUBLE_EQ(loaded.coefficient(i), original.coefficient(i));
  }
}

TEST(PauliSet, LoadRejectsGarbage) {
  std::stringstream buffer("definitely not a pauli set");
  EXPECT_THROW(pp::PauliSet::load_binary(buffer), std::runtime_error);
}

// The byte formats, pinned against the reference records: both
// save_binary overloads, a spill_pauli_set base block and an
// append_pauli_set segment hold exactly their header, then every string's
// trimmed planes and coefficient — a writer and a reader that drift
// together fail here, which no round trip catches. Every load decodes back
// to the string-built set word for word, on both sides of the one-word
// (<= 64 qubit) fast path.
TEST(PauliSetDirectLoad, EqualsStringBuiltSetWordForWord) {
  const std::string spill =
      (std::filesystem::temp_directory_path() /
       ("picasso_format_" + std::to_string(::getpid()) + ".pset"))
          .string();
  for (std::size_t n : kQubitCounts) {
    SCOPED_TRACE("n=" + std::to_string(n));
    constexpr std::size_t kCount = 17, kBase = 10;
    const pp::PauliSet built = random_set(kCount, n, 40 + n);

    const std::vector<std::uint8_t> bytes = saved(built);
    EXPECT_EQ(bytes, reference_block({kSetMagic, n, kCount}, built, 0, kCount));
    std::ostringstream stream;
    built.save_binary(stream);
    const std::string streamed = stream.str();
    EXPECT_EQ(std::vector<std::uint8_t>(streamed.begin(), streamed.end()),
              bytes);

    const pp::PauliSet base = built.prefix(kBase);
    std::vector<std::uint32_t> rest;
    for (std::size_t i = kBase; i < kCount; ++i) {
      rest.push_back(static_cast<std::uint32_t>(i));
    }
    pp::spill_pauli_set(base, spill);
    pp::append_pauli_set(built.subset(rest), spill);
    const std::vector<std::uint8_t> file = file_bytes(spill);
    const std::vector<std::uint8_t> base_block =
        reference_block({kSetMagic, n, kBase}, built, 0, kBase);
    EXPECT_EQ(slice_of(file, 0, base_block.size()), base_block);
    // The segment follows the base block's trailer.
    const std::size_t segment_at =
        base_block.size() + 2 * sizeof(std::uint64_t);
    const std::vector<std::uint8_t> segment = reference_block(
        {kAppendMagic, kCount - kBase}, built, kBase, kCount);
    EXPECT_EQ(slice_of(file, segment_at, segment.size()), segment);

    expect_same_set(load_stream(bytes), built);
    expect_same_set(pp::PauliSet::load_binary(bytes), built);
    expect_same_set(
        pp::PauliSet::from_records(n, kCount, bytes.data() + 24), built);
    expect_same_set(pp::ChunkedPauliReader(spill, kCount).load_chunk(0),
                    built);
  }
  std::filesystem::remove(spill);
}

TEST(PauliSetDirectLoad, EmptySetLoadsWithZeroQubits) {
  const pp::PauliSet empty_with_width = random_set(5, 30, 1).prefix(0);
  ASSERT_EQ(empty_with_width.num_qubits(), 30u);
  for (const pp::PauliSet& empty : {pp::PauliSet{}, empty_with_width}) {
    const std::vector<std::uint8_t> bytes = saved(empty);
    for (const pp::PauliSet& loaded :
         {load_stream(bytes), pp::PauliSet::load_binary(bytes)}) {
      EXPECT_EQ(loaded.size(), 0u);
      EXPECT_EQ(loaded.num_qubits(), 0u);
    }
  }
}

// A plane bit set above num_qubits — in the x or the z plane, in the first,
// a middle or the last record — is corrupt input, named by its record, at
// every width with padding bits (a multiple of 8 has none).
TEST(PauliSetDirectLoad, RejectsAPaddingBitInAnyRecord) {
  for (std::size_t n : kQubitCounts) {
    if (n % 8 == 0) continue;
    const pp::PauliSet set = random_set(9, n, 9);
    for (std::size_t string : {0u, 5u, 8u}) {
      for (const bool z_plane : {false, true}) {
        for (std::size_t bit : {n, 8 * pp::plane_bytes(n) - 1}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " string=" +
                       std::to_string(string) + " z=" +
                       std::to_string(z_plane) + " bit=" +
                       std::to_string(bit));
          std::vector<std::uint8_t> bytes = saved(set);
          flip_plane_bit(bytes, set, string, z_plane, bit);
          const std::string where = "corrupt record " + std::to_string(string);
          for (const auto& load :
               {+[](const std::vector<std::uint8_t>& b) { load_stream(b); },
                +[](const std::vector<std::uint8_t>& b) {
                  pp::PauliSet::load_binary(b);
                }}) {
            try {
              load(bytes);
              ADD_FAILURE() << "a set padding bit loaded";
            } catch (const std::runtime_error& error) {
              EXPECT_NE(std::string(error.what()).find(where),
                        std::string::npos)
                  << error.what();
            }
          }
        }
      }
    }
  }
}

// Flipping a plane bit below num_qubits is a different valid string: it
// loads, with just that operator changed.
TEST(PauliSetDirectLoad, EveryPlaneBitBelowTheWidthIsAnOperatorBit) {
  for (std::size_t n : {7u, 64u, 65u}) {
    const pp::PauliSet set = random_set(3, n, 5 + n);
    for (std::size_t qubit : {std::size_t{0}, n - 1}) {
      std::vector<std::uint8_t> bytes = saved(set);
      flip_plane_bit(bytes, set, 1, true, qubit);
      const pp::PauliSet loaded = pp::PauliSet::load_binary(bytes);
      EXPECT_EQ(loaded.string(0), set.string(0));
      EXPECT_EQ(loaded.string(2), set.string(2));
      // The z bit toggles: I <-> Z and X <-> Y.
      pp::PauliString want = set.string(1);
      switch (want.op(qubit)) {
        case pp::PauliOp::I: want.set_op(qubit, pp::PauliOp::Z); break;
        case pp::PauliOp::Z: want.set_op(qubit, pp::PauliOp::I); break;
        case pp::PauliOp::X: want.set_op(qubit, pp::PauliOp::Y); break;
        case pp::PauliOp::Y: want.set_op(qubit, pp::PauliOp::X); break;
      }
      EXPECT_EQ(loaded.string(1), want) << "n=" << n << " qubit=" << qubit;
    }
  }
}

TEST(PauliSetDirectLoad, RejectsTruncationAndOversizedCounts) {
  const pp::PauliSet set = random_set(4, 25, 2);
  const std::vector<std::uint8_t> bytes = saved(set);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{24},
                          bytes.size() - 1}) {
    const std::vector<std::uint8_t> head(bytes.begin(),
                                         bytes.begin() + cut);
    EXPECT_THROW(load_stream(head), std::runtime_error) << cut;
    EXPECT_THROW(pp::PauliSet::load_binary(head), std::runtime_error) << cut;
  }
  // A header claiming 2^62 strings: the byte size overflows 64 bits.
  std::vector<std::uint8_t> huge = bytes;
  const std::uint64_t count = std::uint64_t{1} << 62;
  std::memcpy(huge.data() + 16, &count, sizeof(count));
  EXPECT_THROW(load_stream(huge), std::runtime_error);
  EXPECT_THROW(pp::PauliSet::load_binary(huge), std::runtime_error);
}

TEST(PauliSetDirectLoad, LoadChunkEqualsPrefixAndSubset) {
  const pp::PauliSet set = random_set(50, 45, 17);
  const std::string spill =
      (std::filesystem::temp_directory_path() /
       ("picasso_encoding_" + std::to_string(::getpid()) + ".pset"))
          .string();
  pp::spill_pauli_set(set, spill);
  const pp::ChunkedPauliReader reader(spill, 16);
  ASSERT_EQ(reader.num_chunks(), 4u);
  expect_same_set(reader.load_chunk(0), set.prefix(16));
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < reader.chunk_size(c); ++i) {
      ids.push_back(static_cast<std::uint32_t>(reader.chunk_begin(c) + i));
    }
    expect_same_set(reader.load_chunk(c), set.subset(ids));
  }
  expect_same_set(reader.load_strings(0, set.size()), set);
  EXPECT_THROW(reader.load_strings(40, 11), std::out_of_range);
  std::filesystem::remove(spill);
}

TEST(ProblemFingerprint, EverySinglePlaneBitAndHashedParamMatters) {
  const std::size_t n = 70;  // two plane words, record = 4 words
  const pp::PauliSet set = random_set(8, n, 23);
  const pp::PackedView view = set.packed_view();
  const picasso::core::PicassoParams params;
  namespace papi = picasso::api;
  const std::uint64_t base = papi::problem_fingerprint(set, params);
  EXPECT_EQ(papi::problem_fingerprint(pp::PackedPauliSet(set).view(), n,
                                      params),
            base);

  std::set<std::uint64_t> seen{base};
  std::vector<std::uint64_t> words(view.data,
                                   view.data + view.size * view.record_words());
  for (std::size_t k = 0; k < words.size(); ++k) {
    for (int bit = 0; bit < 64; ++bit) {
      words[k] ^= std::uint64_t{1} << bit;
      const pp::PackedView flipped{words.data(), view.size, view.words};
      seen.insert(papi::problem_fingerprint(flipped, n, params));
      words[k] ^= std::uint64_t{1} << bit;
    }
  }
  EXPECT_EQ(seen.size(), 1 + words.size() * 64);

  auto changed = [&](auto&& edit) {
    picasso::core::PicassoParams p = params;
    edit(p);
    return papi::problem_fingerprint(set, p) != base;
  };
  EXPECT_TRUE(changed([](auto& p) { p.palette_percent += 0.5; }));
  EXPECT_TRUE(changed([](auto& p) { p.alpha *= 2; }));
  EXPECT_TRUE(changed([](auto& p) { p.seed ^= 1; }));
  EXPECT_TRUE(changed([](auto& p) { p.max_iterations += 1; }));
  EXPECT_NE(papi::problem_fingerprint(view, n + 1, params), base);
  EXPECT_NE(papi::problem_fingerprint(set.prefix(7), params), base);
}
