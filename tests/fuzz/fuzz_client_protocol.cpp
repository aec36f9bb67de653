// Fuzz harness: every client codec in server/protocol.hpp.
//
// Same shape as fuzz_wire.cpp — the first byte selects type and mode —
// plus the tenant-string rules: structured ClientHello draws tenants up
// to 300 bytes and asserts the decoder's 256-byte cap (a too-long
// tenant encodes fine but must be refused on decode).
#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "support/fuzz_input.hpp"
#include "support/msg_equal.hpp"

using namespace fastjoin;
using fastjoin::fuzz::FuzzSource;
using fastjoin::fuzz::eq;

namespace {

constexpr std::uint32_t kMaxVec = 24;
constexpr std::size_t kMaxTenantBytes = 256;  // decoder's cap

template <typename M>
void check_raw(FuzzSource& src) {
  const std::vector<std::byte> payload = src.rest();
  M m;
  if (!decode(payload, m)) return;
  const std::vector<std::byte> re = encode(m);
  FUZZ_REQUIRE(re == payload, "encode(decode(p)) == p for accepted p");
  M m2;
  FUZZ_REQUIRE(decode(re, m2), "decode-encode-decode fixpoint decodes");
  FUZZ_REQUIRE(eq(m, m2), "decode-encode-decode fixpoint is stable");
}

template <typename M>
void check_structured(const M& m) {
  const std::vector<std::byte> enc = encode(m);
  M back;
  FUZZ_REQUIRE(decode(enc, back), "decode(encode(m)) accepts");
  FUZZ_REQUIRE(eq(m, back), "decode(encode(m)) == m");
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    std::vector<std::byte> trunc(enc.begin(),
                                 enc.begin() + static_cast<std::ptrdiff_t>(cut));
    M scratch;
    FUZZ_REQUIRE(!decode(trunc, scratch), "every truncation rejected");
  }
  std::vector<std::byte> padded = enc;
  padded.push_back(std::byte{0});
  M scratch;
  FUZZ_REQUIRE(!decode(padded, scratch), "trailing garbage rejected");
}

void run_type(std::uint8_t selector, FuzzSource& src) {
  const bool structured = (selector & 1) != 0;
  switch ((selector >> 1) % 7) {
    case 0: {
      if (!structured) return check_raw<server::ClientHelloMsg>(src);
      server::ClientHelloMsg m;
      const std::uint32_t len = src.below(301);
      for (std::uint32_t i = 0; i < len; ++i) {
        m.tenant.push_back(static_cast<char>(src.u8()));
      }
      m.proto_version = src.u32();
      if (m.tenant.size() > kMaxTenantBytes) {
        // Encodable but not decodable: the trust boundary refuses
        // tenants past the cap no matter what a client sends.
        server::ClientHelloMsg scratch;
        FUZZ_REQUIRE(!decode(encode(m), scratch),
                     "oversized tenant rejected");
        return;
      }
      return check_structured(m);
    }
    case 1: {
      if (!structured) return check_raw<server::ClientHelloAckMsg>(src);
      server::ClientHelloAckMsg m;
      m.ok = src.u8();
      m.reason = src.u8();
      m.max_batch_records = src.u32();
      m.rate_bytes_per_sec = src.u64();
      m.burst_bytes = src.u64();
      return check_structured(m);
    }
    case 2: {
      if (!structured) return check_raw<server::AppendMsg>(src);
      server::AppendMsg m;
      m.req_id = src.u64();
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        server::ClientRecord rec;
        rec.side = static_cast<Side>(src.below(2));
        rec.key = src.u64();
        rec.payload = src.u64();
        m.records.push_back(rec);
      }
      return check_structured(m);
    }
    case 3: {
      if (!structured) return check_raw<server::AppendAckMsg>(src);
      server::AppendAckMsg m;
      m.req_id = src.u64();
      m.first_offset = src.u64();
      m.appended = src.u64();
      m.parked = src.u64();
      return check_structured(m);
    }
    case 4: {
      if (!structured) return check_raw<server::RejectedMsg>(src);
      server::RejectedMsg m;
      m.req_id = src.u64();
      m.reason = src.u8();
      m.retry_after_ms = src.u32();
      return check_structured(m);
    }
    case 5: {
      if (!structured) return check_raw<server::QueryMsg>(src);
      server::QueryMsg m;
      m.req_id = src.u64();
      m.key = src.u64();
      m.max_recent = src.u32();
      return check_structured(m);
    }
    case 6: {
      if (!structured) return check_raw<server::QueryResultMsg>(src);
      server::QueryResultMsg m;
      m.req_id = src.u64();
      m.key = src.u64();
      m.r_tuples = src.u64();
      m.s_tuples = src.u64();
      m.owner_r = src.u32();
      m.owner_s = src.u32();
      m.as_of = src.u64();
      m.matches_total = src.u64();
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        MatchPair p;
        p.key = src.u64();
        p.r_seq = src.u64();
        p.s_seq = src.u64();
        m.recent.push_back(p);
      }
      return check_structured(m);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzSource src(data, size);
  const std::uint8_t selector = src.u8();
  run_type(selector, src);
  return 0;
}
