// Seeded mutation test of the SolveRequest parser, the daemon's outermost
// byte-level input. Starting from one valid request, ~2k bounded mutants
// (bit flips, truncations, length-field splices) go through
// decode_solve_request; each must either be rejected with a WireError or
// parse into a request that checks out. Every allocation the parser makes
// is bounded by the bytes actually present, so a tiny frame claiming a huge
// string count is rejected before anything large is allocated, and a
// record with a plane bit set above the qubit count is rejected. Runs in
// the default ctest suite, and so under the ASan/UBSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "pauli/pauli_set.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"

namespace {
// Largest single operator-new request since the last reset.
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t bytes) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (bytes > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, bytes,
                                                std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace pp = picasso::pauli;
namespace psvc = picasso::service;

constexpr std::size_t kMutants = 2100;

// Byte offsets of the request's length fields: the tenant length, then the
// blob length and the blob's qubit and string counts (the v3 layout, with
// the fixed-width params between tenant and blob).
constexpr std::size_t kTenantLenAt = 12;
std::size_t blob_len_at(const psvc::SolveRequestMsg& msg) {
  return kTenantLenAt + 4 + msg.tenant.size() + 4 + 8 + 8 + 8 + 4 + 1 + 1 +
         8 + 1 + 8;
}

psvc::SolveRequestMsg valid_request() {
  picasso::util::Xoshiro256 rng(31);
  std::vector<pp::PauliString> strings;
  std::vector<double> coefs;
  for (int i = 0; i < 12; ++i) {
    pp::PauliString s(30);
    for (std::size_t q = 0; q < s.num_qubits(); ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
    coefs.push_back(rng.uniform());
  }
  psvc::SolveRequestMsg msg;
  msg.id = 77;
  msg.tenant = "mutants";
  msg.priority = 3;
  msg.params.seed = 5;
  msg.params.deadline_ms = 1000;
  msg.records = pp::PauliSet(strings, coefs);
  return msg;
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// A parse "checks out" when the records are internally consistent (the
/// planes decoded from the trimmed records give the anticommutation answers
/// of the character-comparison reference), fit in the bytes received, and
/// survive a re-encode unchanged.
void expect_consistent(const psvc::SolveRequestMsg& got,
                       std::size_t payload_bytes) {
  const pp::PauliSet& records = got.records;
  EXPECT_LE(records.binary_size(), payload_bytes);
  if (records.empty()) EXPECT_EQ(records.num_qubits(), 0u);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    ASSERT_EQ(records.anticommute(i, i + 1),
              records.anticommute_naive(i, i + 1));
  }
  const psvc::SolveRequestMsg again =
      psvc::decode_solve_request(psvc::encode_solve_request(got));
  EXPECT_EQ(again.id, got.id);
  EXPECT_EQ(again.tenant, got.tenant);
  EXPECT_EQ(again.params.seed, got.params.seed);
  const picasso::core::PicassoParams params;
  EXPECT_EQ(picasso::api::problem_fingerprint(again.records, params),
            picasso::api::problem_fingerprint(records, params));
}

}  // namespace

TEST(WireMutation, TinyRequestClaimingHugeCountFailsWithoutAllocating) {
  // Header fields only, then a blob whose PauliSet header claims 2^40
  // strings of 4 qubits followed by a few stray bytes (~40 bytes of blob).
  psvc::SolveRequestMsg msg;
  msg.tenant = "t";
  std::vector<std::uint8_t> payload = psvc::encode_solve_request(msg);
  const std::size_t blob_at = blob_len_at(msg);
  payload.resize(blob_at + 4 + 40, 0);
  put_u32(payload, blob_at, 40);
  put_u64(payload, blob_at + 4, pp::PauliSet::kBinaryMagic);
  put_u64(payload, blob_at + 12, 4);
  put_u64(payload, blob_at + 20, std::uint64_t{1} << 40);

  g_largest_alloc = 0;
  try {
    psvc::decode_solve_request(payload);
    ADD_FAILURE() << "a request claiming 2^40 strings parsed";
  } catch (const psvc::WireError& error) {
    EXPECT_EQ(std::string(error.what()).rfind("bad Pauli payload", 0), 0u)
        << error.what();
  }
  EXPECT_LT(g_largest_alloc.load(), std::size_t{4096});
}

TEST(WireMutation, EveryMutantIsRejectedOrParsesConsistently) {
  const psvc::SolveRequestMsg msg = valid_request();
  const std::vector<std::uint8_t> valid = psvc::encode_solve_request(msg);
  const std::size_t blob_at = blob_len_at(msg);
  ASSERT_EQ(valid.size(), blob_at + 4 + msg.records.binary_size());

  // Values a length field is spliced with: boundaries, off-by-ones around
  // the true sizes, and counts no frame could hold.
  const std::uint64_t splices[] = {0,
                                   1,
                                   2,
                                   7,
                                   valid.size() - blob_at - 5,
                                   valid.size() - blob_at - 4,
                                   valid.size() - blob_at - 3,
                                   0x7fffffffULL,
                                   0xffffffffULL,
                                   std::uint64_t{1} << 40,
                                   ~std::uint64_t{0}};
  // (offset, width) of every length or count field.
  const std::pair<std::size_t, int> fields[] = {{kTenantLenAt, 4},
                                                {blob_at, 4},
                                                {blob_at + 12, 8},
                                                {blob_at + 20, 8}};

  picasso::util::Xoshiro256 rng(2024);
  std::size_t rejected = 0, parsed = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> bytes = valid;
    switch (m % 3) {
      case 0: {  // 1-4 random bit flips
        const std::size_t flips = 1 + rng.bounded(4);
        for (std::size_t f = 0; f < flips; ++f) {
          bytes[rng.bounded(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.bounded(8));
        }
        break;
      }
      case 1:  // truncation
        bytes.resize(rng.bounded(bytes.size()));
        break;
      default: {  // length-field splice
        const auto [at, width] = fields[rng.bounded(std::size(fields))];
        const std::uint64_t value = splices[rng.bounded(std::size(splices))];
        if (width == 4) {
          put_u32(bytes, at, static_cast<std::uint32_t>(value));
        } else {
          put_u64(bytes, at, value);
        }
        break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(m));
    g_largest_alloc = 0;
    try {
      const psvc::SolveRequestMsg got = psvc::decode_solve_request(bytes);
      // Allocations are bounded by what arrived: the widened planes and the
      // coefficients hold at most the blob's bytes twice over.
      EXPECT_LE(g_largest_alloc.load(), 2 * bytes.size() + 4096);
      ++parsed;
      expect_consistent(got, bytes.size());
    } catch (const psvc::WireError&) {
      EXPECT_LE(g_largest_alloc.load(), 2 * bytes.size() + 4096);
      ++rejected;
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_GT(parsed, kMutants / 10);
}

TEST(WireMutation, PaddingBitAboveTheQubitCountIsAWireError) {
  const psvc::SolveRequestMsg msg = valid_request();
  const std::vector<std::uint8_t> valid = psvc::encode_solve_request(msg);
  // Blob: length, then magic, qubit and string counts, then the records.
  // 30 qubits leave bits 30 and 31 of each 4-byte plane as padding.
  const std::size_t records_at = blob_len_at(msg) + 4 + 24;
  const std::size_t record = pp::pset_record_bytes(30);
  for (const std::size_t string : {std::size_t{0}, std::size_t{11}}) {
    for (const std::size_t plane : {std::size_t{0}, std::size_t{4}}) {
      std::vector<std::uint8_t> bytes = valid;
      bytes[records_at + string * record + plane + 3] ^= 0x40;  // bit 30
      try {
        psvc::decode_solve_request(bytes);
        ADD_FAILURE() << "a padding bit parsed";
      } catch (const psvc::WireError& error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind("bad Pauli payload", 0), 0u) << what;
        EXPECT_NE(what.find("corrupt record " + std::to_string(string)),
                  std::string::npos)
            << what;
      }
    }
  }
}
