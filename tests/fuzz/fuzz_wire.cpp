// Fuzz harness: every worker wire codec in net/wire.hpp.
//
// The first input byte selects one of the eleven message types and one
// of two modes:
//   raw        — the rest of the input is decoded directly. When decode
//                accepts, the codec must be canonical: encode(decoded)
//                reproduces the input bytes exactly, and the
//                decode→encode→decode fixpoint holds.
//   structured — a message is built from fuzz-drawn fields, then
//                decode(encode(m)) == m must hold, every proper prefix
//                of the encoding must be rejected (single-byte
//                truncation included), and one trailing garbage byte
//                must be rejected.
#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "support/fuzz_input.hpp"
#include "support/msg_equal.hpp"

using namespace fastjoin;
using fastjoin::fuzz::FuzzSource;
using fastjoin::fuzz::eq;

namespace {

constexpr std::uint32_t kMaxVec = 24;

Record draw_record(FuzzSource& src) {
  Record r;
  r.key = src.u64();
  r.seq = src.u64();
  r.payload = src.u64();
  r.ts = static_cast<SimTime>(src.u64());
  r.side = static_cast<Side>(src.below(2));
  return r;
}

net::WireTuple draw_tuple(FuzzSource& src) {
  net::WireTuple t;
  t.side = static_cast<Side>(src.below(2));
  t.key = src.u64();
  t.tuple.seq = src.u64();
  t.tuple.payload = src.u64();
  t.tuple.ts = static_cast<SimTime>(src.u64());
  t.tuple.subwindow = src.u32();
  return t;
}

/// Raw-mode properties for one codec over the unconsumed input.
template <typename M>
void check_raw(FuzzSource& src) {
  const std::vector<std::byte> payload = src.rest();
  M m;
  if (!decode(payload, m)) return;
  // Canonical: a payload the decoder accepts is exactly what the
  // encoder emits for the decoded value (fixed-width fields, length-
  // prefixed vectors, no trailing slack — r.done() guarantees it).
  const std::vector<std::byte> re = encode(m);
  FUZZ_REQUIRE(re == payload, "encode(decode(p)) == p for accepted p");
  M m2;
  FUZZ_REQUIRE(decode(re, m2), "decode-encode-decode fixpoint decodes");
  FUZZ_REQUIRE(eq(m, m2), "decode-encode-decode fixpoint is stable");
}

/// Structured-mode properties for one built message.
template <typename M>
void check_structured(const M& m) {
  const std::vector<std::byte> enc = encode(m);
  M back;
  FUZZ_REQUIRE(decode(enc, back), "decode(encode(m)) accepts");
  FUZZ_REQUIRE(eq(m, back), "decode(encode(m)) == m");
  // Any proper prefix — in particular the one-byte truncation — fails.
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
  switch ((selector >> 1) % 11) {
    case 0: {
      if (!structured) return check_raw<net::HelloMsg>(src);
      net::HelloMsg m;
      m.worker_id = src.u32();
      m.pid = src.u64();
      return check_structured(m);
    }
    case 1: {
      if (!structured) return check_raw<net::HelloAckMsg>(src);
      net::HelloAckMsg m;
      m.worker_id = src.u32();
      m.workers = src.u32();
      m.collect_matches = src.u8();
      return check_structured(m);
    }
    case 2: {
      if (!structured) return check_raw<net::DataBatchMsg>(src);
      net::DataBatchMsg m;
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        net::DataEntry e;
        e.offset = src.u64();
        // Decode requires a delivery half and nothing else; keep the
        // draw in-domain.
        e.flags = static_cast<std::uint8_t>(1 + src.below(3));
        e.rec = draw_record(src);
        m.entries.push_back(e);
      }
      return check_structured(m);
    }
    case 3: {
      if (!structured) return check_raw<net::ExtractMsg>(src);
      net::ExtractMsg m;
      m.mig_id = src.u64();
      m.side = static_cast<Side>(src.below(2));
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) m.keys.push_back(src.u64());
      return check_structured(m);
    }
    case 4: {
      if (!structured) return check_raw<net::ExtractBatchMsg>(src);
      net::ExtractBatchMsg m;
      m.mig_id = src.u64();
      m.consumed_offset = src.u64();
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        m.tuples.push_back(draw_tuple(src));
      }
      return check_structured(m);
    }
    case 5: {
      if (!structured) return check_raw<net::AbsorbMsg>(src);
      net::AbsorbMsg m;
      m.mig_id = src.u64();
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        m.tuples.push_back(draw_tuple(src));
      }
      return check_structured(m);
    }
    case 6: {
      if (!structured) return check_raw<net::AbsorbAckMsg>(src);
      net::AbsorbAckMsg m;
      m.mig_id = src.u64();
      return check_structured(m);
    }
    case 7: {
      if (!structured) return check_raw<net::CheckpointMsg>(src);
      net::CheckpointMsg m;
      m.ckpt_id = src.u64();
      return check_structured(m);
    }
    case 8: {
      if (!structured) return check_raw<net::SnapshotMsg>(src);
      net::SnapshotMsg m;
      m.ckpt_id = src.u64();
      m.consumed_offset = src.u64();
      m.emit_offset = src.u64();
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        m.tuples.push_back(draw_tuple(src));
      }
      return check_structured(m);
    }
    case 9: {
      if (!structured) return check_raw<net::MatchBatchMsg>(src);
      net::MatchBatchMsg m;
      m.emit_offset = src.u64();
      m.count = src.u64();
      const std::uint32_t n = src.below(kMaxVec);
      for (std::uint32_t i = 0; i < n; ++i) {
        MatchPair p;
        p.key = src.u64();
        p.r_seq = src.u64();
        p.s_seq = src.u64();
        m.pairs.push_back(p);
      }
      return check_structured(m);
    }
    case 10: {
      if (!structured) return check_raw<net::FinalMsg>(src);
      net::FinalMsg m;
      m.stores = src.u64();
      m.probes = src.u64();
      m.matches = src.u64();
      m.dedup_skipped = src.u64();
      m.absorbed = src.u64();
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
