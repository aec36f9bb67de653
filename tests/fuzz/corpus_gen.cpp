// corpus_gen: writes the committed seed corpora under
// tests/fuzz/corpus/{frame,wire,client,frontdoor,streamlog}.
//
//   corpus_gen <corpus-root>
//
// Seeds are deterministic and structure-bearing: for the codec
// harnesses one raw-mode and one structured-mode input per message
// type (the mode/type selector byte is the harnesses' first byte), for
// the frame harness one input per mode, and op scripts for the
// frontdoor/streamlog harnesses. Regenerate any time the wire format
// grows a type — the parity lint will already be failing by then.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/wire.hpp"
#include "server/protocol.hpp"

using namespace fastjoin;
namespace fs = std::filesystem;

namespace {

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream f(dir / name, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

void append_bytes(std::vector<std::uint8_t>& out,
                  const std::vector<std::byte>& b) {
  for (const std::byte x : b) {
    out.push_back(static_cast<std::uint8_t>(x));
  }
}

/// Selector byte for the codec harnesses: bit 0 = structured mode,
/// bits 1.. = type index.
std::uint8_t selector(std::uint32_t type_idx, bool structured) {
  return static_cast<std::uint8_t>((type_idx << 1) | (structured ? 1 : 0));
}

/// A run of pseudo-field bytes for structured-mode seeds: enough
/// material for the harness's field draws, patterned so mutations have
/// structure to chew on.
std::vector<std::uint8_t> field_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(salt + i * 7);
  }
  return v;
}

net::WireTuple sample_tuple(std::uint32_t i) {
  net::WireTuple t;
  t.side = (i & 1) ? Side::kS : Side::kR;
  t.key = 100 + i;
  t.tuple.seq = 1000 + i;
  t.tuple.payload = 42 * i;
  t.tuple.ts = static_cast<SimTime>(5 + i);
  t.tuple.subwindow = i % 3;
  return t;
}

void gen_wire(const fs::path& dir) {
  // Raw-mode seeds: selector byte + a canonical encoding per type.
  auto raw_seed = [&](std::uint32_t idx, const std::string& name,
                      const std::vector<std::byte>& payload) {
    std::vector<std::uint8_t> bytes{selector(idx, false)};
    append_bytes(bytes, payload);
    write_seed(dir, "raw-" + name, bytes);
    // Structured-mode seed for the same type: selector + field material.
    write_seed(dir, "structured-" + name,
               [&] {
                 std::vector<std::uint8_t> s{selector(idx, true)};
                 const auto f = field_bytes(96, static_cast<std::uint8_t>(idx));
                 s.insert(s.end(), f.begin(), f.end());
                 return s;
               }());
  };

  net::HelloMsg hello{3, 4242};
  raw_seed(0, "hello", encode(hello));
  net::HelloAckMsg hello_ack{3, 8, 1};
  raw_seed(1, "hello_ack", encode(hello_ack));
  net::DataBatchMsg batch;
  for (std::uint32_t i = 0; i < 3; ++i) {
    net::DataEntry e;
    e.offset = 10 + i;
    e.flags = static_cast<std::uint8_t>(
        i == 2 ? net::kDeliverStore | net::kDeliverProbe
               : (i % 2 ? net::kDeliverProbe : net::kDeliverStore));
    e.rec = Record{7 + i, 70 + i, 700 + i, static_cast<SimTime>(i),
                   (i & 1) ? Side::kS : Side::kR};
    batch.entries.push_back(e);
  }
  raw_seed(2, "data", encode(batch));
  net::ExtractMsg extract;
  extract.mig_id = 9;
  extract.side = Side::kS;
  extract.keys = {1, 2, 3};
  raw_seed(3, "extract", encode(extract));
  net::ExtractBatchMsg eb;
  eb.mig_id = 9;
  eb.consumed_offset = 55;
  eb.tuples = {sample_tuple(0), sample_tuple(1)};
  raw_seed(4, "extract_batch", encode(eb));
  net::AbsorbMsg absorb;
  absorb.mig_id = 9;
  absorb.tuples = {sample_tuple(2)};
  raw_seed(5, "absorb", encode(absorb));
  net::AbsorbAckMsg absorb_ack{9};
  raw_seed(6, "absorb_ack", encode(absorb_ack));
  net::CheckpointMsg ckpt{31};
  raw_seed(7, "checkpoint", encode(ckpt));
  net::SnapshotMsg snap;
  snap.ckpt_id = 31;
  snap.consumed_offset = 77;
  snap.emit_offset = 77;
  snap.tuples = {sample_tuple(3), sample_tuple(4)};
  raw_seed(8, "snapshot", encode(snap));
  net::MatchBatchMsg mb;
  mb.emit_offset = 88;
  mb.count = 2;
  mb.pairs = {MatchPair{1, 2, 3}, MatchPair{4, 5, 6}};
  raw_seed(9, "match_batch", encode(mb));
  net::FinalMsg fin{10, 11, 12, 2, 3};
  raw_seed(10, "final", encode(fin));
}

void gen_client(const fs::path& dir) {
  auto raw_seed = [&](std::uint32_t idx, const std::string& name,
                      const std::vector<std::byte>& payload) {
    std::vector<std::uint8_t> bytes{selector(idx, false)};
    append_bytes(bytes, payload);
    write_seed(dir, "raw-" + name, bytes);
    write_seed(dir, "structured-" + name,
               [&] {
                 std::vector<std::uint8_t> s{selector(idx, true)};
                 const auto f = field_bytes(96, static_cast<std::uint8_t>(
                                                    0x40 + idx));
                 s.insert(s.end(), f.begin(), f.end());
                 return s;
               }());
  };

  server::ClientHelloMsg hello;
  hello.tenant = "alpha";
  hello.proto_version = 1;
  raw_seed(0, "client_hello", encode(hello));
  server::ClientHelloAckMsg hello_ack;
  hello_ack.ok = 1;
  hello_ack.max_batch_records = 8192;
  hello_ack.rate_bytes_per_sec = 1 << 20;
  hello_ack.burst_bytes = 1 << 16;
  raw_seed(1, "client_hello_ack", encode(hello_ack));
  server::AppendMsg append;
  append.req_id = 5;
  for (std::uint32_t i = 0; i < 3; ++i) {
    append.records.push_back(server::ClientRecord{
        (i & 1) ? Side::kS : Side::kR, 10 + i, 1000 + i});
  }
  raw_seed(2, "append", encode(append));
  server::AppendAckMsg ack{5, 40, 3, 0};
  raw_seed(3, "append_ack", encode(ack));
  server::RejectedMsg rej;
  rej.req_id = 5;
  rej.reason = static_cast<std::uint8_t>(server::RejectReason::kTenantRate);
  rej.retry_after_ms = 120;
  raw_seed(4, "rejected", encode(rej));
  server::QueryMsg query{6, 77, 8};
  raw_seed(5, "query", encode(query));
  server::QueryResultMsg qr;
  qr.req_id = 6;
  qr.key = 77;
  qr.r_tuples = 2;
  qr.s_tuples = 3;
  qr.owner_r = 0;
  qr.owner_s = 1;
  qr.as_of = 4;
  qr.matches_total = 6;
  qr.recent = {MatchPair{77, 1, 2}};
  raw_seed(6, "query_result", encode(qr));
}

void gen_frame(const fs::path& dir) {
  // Mode 0 (raw): a valid frame followed by garbage.
  {
    std::vector<std::uint8_t> bytes{0};
    bytes.push_back(24);  // first chunk-length draw (u32 low byte)
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    append_bytes(bytes, net::encode_frame(
                            3, std::vector<std::byte>(8, std::byte{7})));
    for (int i = 0; i < 12; ++i) bytes.push_back(0xEE);
    write_seed(dir, "raw-frame-then-junk", bytes);
  }
  // Mode 1 (valid stream): frame count + types + payload material.
  {
    std::vector<std::uint8_t> bytes{1};
    const auto f = field_bytes(128, 0x11);
    bytes.insert(bytes.end(), f.begin(), f.end());
    write_seed(dir, "valid-stream", bytes);
  }
  // Mode 2 (corruption): same material, corruption position drawn late.
  {
    std::vector<std::uint8_t> bytes{2};
    const auto f = field_bytes(160, 0x23);
    bytes.insert(bytes.end(), f.begin(), f.end());
    write_seed(dir, "corrupt-stream", bytes);
  }
}

void gen_frontdoor(const fs::path& dir) {
  // Op scripts: config draws first (see fuzz_frontdoor.cpp), then
  // (slot, op, args) tuples. Exact field alignment doesn't matter — the
  // harness treats every byte stream as a valid script — but starting
  // from plausible sequences gives mutation something to extend.
  auto script = [&](const std::string& name, std::uint8_t salt,
                    std::initializer_list<std::uint8_t> ops) {
    std::vector<std::uint8_t> bytes = field_bytes(14, salt);  // config
    for (std::uint8_t op : ops) {
      bytes.push_back(0);  // slot draw (u32 low byte consumed by below())
      bytes.push_back(0);
      bytes.push_back(0);
      bytes.push_back(0);
      bytes.push_back(op);
      const auto args = field_bytes(24, static_cast<std::uint8_t>(salt + op));
      bytes.insert(bytes.end(), args.begin(), args.end());
    }
    write_seed(dir, name, bytes);
  };
  script("happy-path", 0x31, {0, 1, 2, 3, 9, 4});
  script("junk-and-torn", 0x47, {0, 5, 6, 9, 8});
  script("idle-sweep", 0x59, {0, 1, 7, 9, 7, 9});
  script("capacity-churn", 0x6B, {0, 0, 0, 0, 8, 0, 9});
}

void gen_streamlog(const fs::path& dir) {
  // Directory scripts: config draws, then per-file (part, base-mode,
  // base, length, body) tuples; see fuzz_streamlog.cpp.
  write_seed(dir, "clean-chain", field_bytes(200, 0x71));
  write_seed(dir, "overlap-heavy", field_bytes(300, 0x83));
  write_seed(dir, "tiny", field_bytes(24, 0x95));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: corpus_gen <corpus-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  gen_wire(root / "wire");
  gen_client(root / "client");
  gen_frame(root / "frame");
  gen_frontdoor(root / "frontdoor");
  gen_streamlog(root / "streamlog");
  std::printf("corpus_gen: seeds written under %s\n", root.string().c_str());
  return 0;
}
