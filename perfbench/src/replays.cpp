#include "replays.hpp"

#include <sys/socket.h>

#include <memory>
#include <thread>
#include <unordered_map>

#include "common/hash.hpp"
#include "core/planner.hpp"
#include "engine/join_store.hpp"
#include "ingest/stream_log.hpp"
#include "net/connection.hpp"
#include "net/crc32.hpp"
#include "net/wire.hpp"
#include "server/admission.hpp"
#include "server/protocol.hpp"

namespace perfbench {
namespace {

namespace net = fastjoin::net;
namespace srv = fastjoin::server;
using fastjoin::KeyId;
using fastjoin::Side;

std::uint32_t owner(KeyId key) { return fastjoin::instance_of(key, kWorkers); }

/// Insert then probe-find every record in arrival order into per-owner
/// stores, as a multiproc worker does; the walk length is exact.
void replay_engine(const std::vector<Record>& recs, Layers& L) {
  std::vector<std::unique_ptr<fastjoin::JoinStore>> stores;
  for (std::uint32_t i = 0; i < 2 * kWorkers; ++i) {
    stores.push_back(std::make_unique<fastjoin::JoinStore>());
  }
  auto store = [&](std::uint32_t w, Side s) -> fastjoin::JoinStore& {
    return *stores[2 * w + static_cast<std::uint32_t>(s)];
  };
  double insert_s = 0.0, find_s = 0.0, walk_s = 0.0;
  std::uint64_t walked = 0, matched = 0;
  std::vector<const fastjoin::JoinStore::Bucket*> found;
  constexpr std::size_t kChunk = 256;
  for (std::size_t i = 0; i < recs.size(); i += kChunk) {
    const std::size_t end = std::min(i + kChunk, recs.size());
    const double a = now_s();
    for (std::size_t k = i; k < end; ++k) {
      const Record& r = recs[k];
      store(owner(r.key), r.side)
          .insert(r.key, fastjoin::StoredTuple{r.seq, r.payload, r.ts, 0});
    }
    const double b = now_s();
    found.clear();
    for (std::size_t k = i; k < end; ++k) {
      const Record& r = recs[k];
      found.push_back(
          store(owner(r.key), fastjoin::other_side(r.side)).find(r.key));
    }
    const double c = now_s();
    // The multiproc worker's probe: walk the bucket, test precedes().
    for (std::size_t k = i; k < end; ++k) {
      if (found[k - i] == nullptr) continue;
      const Record& r = recs[k];
      const Side other = fastjoin::other_side(r.side);
      for (const auto& t : *found[k - i]) {
        ++walked;
        matched += fastjoin::precedes(t.ts, other, t.seq, r.ts, r.side, r.seq);
      }
    }
    insert_s += b - a;
    find_s += c - b;
    walk_s += now_s() - c;
  }
  const double walk_ns_per_tuple =
      walked > 0 ? walk_s * 1e9 / static_cast<double>(walked) : 0.0;
  // The timed loop lets a probe see the rest of its chunk; the walk
  // length a worker meets counts only tuples stored before the probe.
  std::unordered_map<KeyId, std::uint64_t> seen[2];
  walked = 0;
  for (const Record& r : recs) {
    ++seen[static_cast<int>(r.side)][r.key];
    const auto& other = seen[static_cast<int>(fastjoin::other_side(r.side))];
    const auto it = other.find(r.key);
    if (it != other.end()) walked += it->second;
  }
  const double n = static_cast<double>(recs.size());
  L["engine.insert_ns"] = insert_s * 1e9 / n;
  L["engine.insert_ops_per_rec"] = 1.0;
  L["engine.find_ns"] = find_s * 1e9 / n;
  L["engine.find_ops_per_rec"] = 1.0;
  L["engine.walk_ns_per_tuple"] = walk_ns_per_tuple;
  L["engine.tuples_per_probe"] = static_cast<double>(walked) / n;
  L["engine.matches_per_rec"] = static_cast<double>(matched) / n;
}

void replay_ingest(const std::vector<Record>& recs, Layers& L) {
  fastjoin::IngestConfig cfg;
  cfg.partitions = 1;
  fastjoin::StreamLog log(cfg);
  const double a = now_s();
  for (const Record& r : recs) {
    const std::uint32_t w = owner(r.key);
    log.append(0, r, w, w);
  }
  L["ingest.append_ns"] = (now_s() - a) * 1e9 / static_cast<double>(recs.size());
  L["ingest.append_ops_per_rec"] = 1.0;
}

/// Snapshot of one worker's state at the workload's last checkpoint.
net::SnapshotMsg snapshot_of(const std::vector<Record>& recs) {
  const std::uint64_t at = recs.size() / kCheckpointEvery * kCheckpointEvery;
  net::SnapshotMsg snap;
  for (std::uint64_t i = 0; i < at; ++i) {
    const Record& r = recs[i];
    if (owner(r.key) != 0) continue;
    snap.tuples.push_back(net::WireTuple{
        r.side, r.key, fastjoin::StoredTuple{r.seq, r.payload, r.ts, 0}});
  }
  snap.consumed_offset = at;
  snap.emit_offset = at;
  return snap;
}

void replay_net(const std::vector<Record>& recs, const Shape& shape,
                Layers& L) {
  constexpr std::size_t kEntries = 256;  // MultiprocConfig::data_batch
  std::vector<std::vector<std::byte>> frames;
  double encode_s = 0.0;
  std::uint64_t wire_bytes = 0;
  for (std::size_t i = 0; i < recs.size(); i += kEntries) {
    net::DataBatchMsg m;
    for (std::size_t k = i; k < std::min(i + kEntries, recs.size()); ++k) {
      m.entries.push_back(net::DataEntry{
          k, static_cast<std::uint8_t>(net::kDeliverStore | net::kDeliverProbe),
          recs[k]});
    }
    const double a = now_s();
    frames.push_back(net::encode(m));
    encode_s += now_s() - a;
    wire_bytes += net::encode_frame(1, frames.back()).size();
  }
  double decode_s = 0.0;
  std::uint64_t decoded = 0;
  for (const auto& f : frames) {
    net::DataBatchMsg m;
    const double a = now_s();
    const bool ok = net::decode(f, m);
    decode_s += now_s() - a;
    decoded += ok ? m.entries.size() : 0;
  }
  std::uint32_t crc = 0;
  std::uint64_t crc_bytes = 0;
  const double c0 = now_s();
  for (const auto& f : frames) {
    crc = net::crc32c(f.data(), f.size(), crc);
    crc_bytes += f.size();
  }
  const double crc_s = now_s() - c0;
  const double n = static_cast<double>(recs.size());
  L["net.data_encode_ns_per_entry"] = encode_s * 1e9 / n;
  L["net.data_decode_ns_per_entry"] =
      decode_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(decoded, 1));
  // Both halves of a record share its owner worker (one hash for both
  // sides), so each record is one data entry.
  L["net.entries_per_rec"] = 1.0;
  L["net.crc32c_ns_per_kib"] =
      crc_s * 1e9 / (static_cast<double>(crc_bytes) / 1024.0);
  L["net.bytes_per_rec"] = static_cast<double>(wire_bytes) / n;
  L["net.crc32c_kib_per_rec"] = static_cast<double>(wire_bytes) / n / 1024.0;

  const net::SnapshotMsg snap = snapshot_of(recs);
  const double ts = static_cast<double>(std::max<std::size_t>(snap.tuples.size(), 1));
  std::vector<double> enc, dec;
  for (int rep = 0; rep < 3; ++rep) {
    const double a = now_s();
    const auto bytes = net::encode(snap);
    const double b = now_s();
    net::SnapshotMsg back;
    net::decode(bytes, back);
    const double c = now_s();
    enc.push_back((b - a) * 1e9 / ts);
    dec.push_back(back.tuples.size() == snap.tuples.size() ? (c - b) * 1e9 / ts
                                                           : -1.0);
  }
  L["net.snapshot_encode_ns_per_tuple"] = median(enc);
  L["net.snapshot_decode_ns_per_tuple"] = median(dec);
  L["net.snapshot_tuples"] = static_cast<double>(snap.tuples.size());

  // Frame round trip at the append frame size over a unix socket pair.
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    L["net.frame_rtt_us"] = -1.0;
    return;
  }
  net::FrameConn client{net::Socket(fds[0])};
  net::FrameConn echo{net::Socket(fds[1])};
  std::jthread echoer([&echo] {
    net::Frame f;
    while (echo.read_frame(f)) {
      if (!echo.write_frame(f.type, f.payload)) break;
    }
  });
  srv::AppendMsg app;
  for (std::size_t k = 0; k < std::min(shape.batch, recs.size()); ++k) {
    app.records.push_back(srv::ClientRecord{recs[k].side, recs[k].key,
                                            recs[k].payload});
  }
  const auto payload = srv::encode(app);
  std::vector<double> rtt;
  net::Frame back;
  for (int k = 0; k < 2000; ++k) {
    const double a = now_s();
    if (!client.write_frame(1, payload) || !client.read_frame(back)) break;
    rtt.push_back((now_s() - a) * 1e6);
  }
  ::shutdown(fds[0], SHUT_RDWR);
  echoer.join();
  L["net.frame_rtt_us"] = rtt.size() == 2000 ? median(rtt) : -1.0;
}

void replay_server(const std::vector<Record>& recs, const Shape& shape,
                   bool client_appends, Layers& L) {
  const std::size_t batch = shape.batch;
  const std::uint64_t bytes = srv::append_payload_bytes(batch);
  // A fresh controller every 128 checks keeps every check inside the
  // default burst, so each one takes the admitting path.
  constexpr int kPerController = 128, kControllers = 40;
  double admit_s = 0.0;
  std::uint64_t admitted = 0;
  for (int c = 0; c < kControllers; ++c) {
    srv::AdmissionController ac(srv::AdmissionConfig{});
    const double a = now_s();
    for (int k = 0; k < kPerController; ++k) {
      admitted += ac.admit_append("perfbench", bytes, batch, 0).admitted ? 1 : 0;
    }
    admit_s += now_s() - a;
  }
  const double checks = kPerController * kControllers;
  L["server.admit_ns"] = admitted == static_cast<std::uint64_t>(checks)
                             ? admit_s * 1e9 / checks
                             : -1.0;

  std::vector<std::vector<std::byte>> appends;
  for (std::size_t i = 0; i + batch <= recs.size() && appends.size() < 4096;
       i += batch) {
    srv::AppendMsg m;
    m.req_id = i;
    for (std::size_t k = i; k < i + batch; ++k) {
      m.records.push_back(
          srv::ClientRecord{recs[k].side, recs[k].key, recs[k].payload});
    }
    appends.push_back(srv::encode(m));
  }
  std::uint64_t decoded = 0;
  const double a = now_s();
  for (const auto& p : appends) {
    srv::AppendMsg m;
    if (srv::decode(p, m)) decoded += m.records.size();
  }
  const double dec_s = now_s() - a;
  L["server.append_decode_ns_per_rec"] =
      decoded == appends.size() * batch
          ? dec_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(decoded, 1))
          : -1.0;
  L["server.admits_per_rec"] =
      client_appends ? 1.0 / static_cast<double>(batch) : 0.0;
  L["server.append_decode_recs_per_rec"] = client_appends ? 1.0 : 0.0;
}

/// Key selection on a key-load snapshot: the R side of the heavier of
/// two instances against the lighter, stored = R tuples so far, queued =
/// S arrivals in the last tenth of the input.
void replay_core(const std::vector<Record>& recs, Layers& L) {
  std::unordered_map<KeyId, fastjoin::KeyLoad> loads[kWorkers];
  const std::size_t recent = recs.size() - recs.size() / 10;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    auto& kl = loads[owner(r.key)][r.key];
    kl.key = r.key;
    if (r.side == Side::kR) ++kl.stored;
    if (r.side == Side::kS && i >= recent) ++kl.queued;
  }
  fastjoin::InstanceLoad total[kWorkers];
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    for (const auto& [key, kl] : loads[w]) {
      total[w].stored += kl.stored;
      total[w].queued += kl.queued;
    }
  }
  const std::uint32_t src = total[0].load() >= total[1].load() ? 0 : 1;
  fastjoin::KeySelectionInput in;
  in.src = total[src];
  in.dst = total[1 - src];
  for (const auto& [key, kl] : loads[src]) in.keys.push_back(kl);
  const fastjoin::PlannerConfig cfg;
  std::vector<double> us;
  for (int k = 0; k < 21; ++k) {
    const double a = now_s();
    (void)fastjoin::select_keys(in, cfg);
    us.push_back((now_s() - a) * 1e6);
  }
  L["core.select_keys_us"] = median(us);
}

}  // namespace

Layers replay_modules(const std::vector<Record>& recs, const Shape& shape,
                      bool client_appends, const std::vector<Record>& didi) {
  Layers L;
  if (recs.empty()) return L;
  replay_engine(recs, L);
  replay_ingest(recs, L);
  replay_net(recs, shape, L);
  replay_server(recs, shape, client_appends, L);
  replay_core(didi, L);
  return L;
}

}  // namespace perfbench
