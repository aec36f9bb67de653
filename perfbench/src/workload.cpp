#include "workload.hpp"

#include <unordered_map>

#include "common/rng.hpp"
#include "datagen/keygen.hpp"
#include "datagen/ride_hailing.hpp"

namespace perfbench {

using fastjoin::Side;

namespace {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kMpHotkeys: return "mp_hotkeys";
    case Workload::kServeWide: return "serve_wide";
  }
  return "?";
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kMpHotkeys, Workload::kServeWide}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Shape shape_of(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kMpHotkeys:
      // The probe walks every stored tuple of its key, so a repetition
      // costs O(records^2): 160k records take about a second, most of it
      // in finish(). The router buffers up to 4 MB per worker connection
      // (about 100k records each), more than the whole input, so
      // publish() measures the router's ingest path and set-up stays in
      // the tens of milliseconds; a warm-up beyond the buffers would
      // cost seconds per repetition.
      s.records = 160'000;
      s.warmup = 80'000;
      s.batch = 256;  // the router frames 256 entries
      break;
    case Workload::kServeWide:
      // Two checkpoint rounds a second at this rate, so each O(state)
      // snapshot stall holds a few percent of the requests and p99 sits
      // well inside the stall population rather than at its edge.
      s.offered_rps = 40'000.0;
      s.records = 160'000;  // 3 s of offered load after the warm-up
      s.warmup = 40'000;
      s.batch = 64;
      s.keyspace = 1'000'000;
      break;
  }
  return s;
}

Shape didi_shape() {
  Shape s;
  // About 0.3 s timed: long against finish()'s up-to-one-monitor-tick
  // shutdown, and in-process state stays near 100 MB.
  s.records = 2'400'000;
  s.warmup = 600'000;
  s.batch = 256;
  return s;
}

std::vector<Record> didi_trace(std::uint64_t seed, std::uint64_t n) {
  fastjoin::RideHailingConfig cfg;
  cfg.seed = seed;
  cfg.total_records = n;
  fastjoin::RideHailingGenerator gen(cfg);
  // The generator also derives its cell numbering from the seed, which
  // moves the hot cells between instances; with the balancer off that
  // placement alone moved throughput by half between seeds. Relabel
  // cells to the default seed's numbering: the seed changes the draws,
  // not where the hot cells live.
  auto universe = [&cfg](std::uint64_t s) {
    fastjoin::KeyStreamSpec spec;
    spec.num_keys = cfg.num_locations;
    spec.scramble = s ^ 0x9e3779b97f4a7c15ULL;  // ride_hailing.cpp's salt
    return fastjoin::KeyGenerator(spec);
  };
  const fastjoin::KeyGenerator from = universe(seed);
  const fastjoin::KeyGenerator to = universe(fastjoin::RideHailingConfig{}.seed);
  std::unordered_map<fastjoin::KeyId, fastjoin::KeyId> relabel;
  for (std::uint64_t rank = 1; rank <= cfg.num_locations; ++rank) {
    relabel[from.key_for_rank(rank)] = to.key_for_rank(rank);
  }
  std::vector<Record> out;
  out.reserve(n);
  while (auto r = gen.next()) {
    r->key = relabel.at(r->key);
    out.push_back(*r);
  }
  return out;
}

std::vector<Record> zipf_trace(std::uint64_t seed, std::uint64_t n) {
  fastjoin::KeyStreamSpec spec;
  spec.num_keys = 400;
  spec.zipf_s = 1.1;
  spec.seed = seed;
  fastjoin::KeyGenerator gen(spec);
  fastjoin::Xoshiro256 rng(seed ^ 0xbeef);
  std::vector<Record> out;
  out.reserve(n);
  std::uint64_t seq[2] = {0, 0};
  for (std::uint64_t i = 0; i < n; ++i) {
    Record rec;
    rec.side = rng.next_below(2) != 0 ? Side::kS : Side::kR;
    rec.key = gen();
    rec.seq = seq[static_cast<int>(rec.side)]++;
    rec.ts = i;
    rec.payload = i;
    out.push_back(rec);
  }
  return out;
}

std::vector<fastjoin::server::ClientRecord> uniform_client_records(
    std::uint64_t seed, std::uint64_t n, std::uint64_t keyspace) {
  fastjoin::Xoshiro256 rng(seed ^ 0x5e7e);
  std::vector<fastjoin::server::ClientRecord> out(n);
  for (auto& r : out) {
    r.side = rng.next_below(2) != 0 ? Side::kS : Side::kR;
    r.key = static_cast<fastjoin::KeyId>(rng.next_below(keyspace));
    r.payload = rng();
  }
  return out;
}

std::vector<Record> stamp(
    const std::vector<fastjoin::server::ClientRecord>& recs) {
  std::vector<Record> out;
  out.reserve(recs.size());
  std::uint64_t seq[2] = {0, 0};
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Record r;
    r.side = recs[i].side;
    r.key = recs[i].key;
    r.payload = recs[i].payload;
    r.seq = seq[static_cast<int>(r.side)]++;
    r.ts = i;
    out.push_back(r);
  }
  return out;
}

std::uint64_t expected_matches(const Record* recs, std::size_t n) {
  std::unordered_map<fastjoin::KeyId, std::uint64_t> count[2];
  for (std::size_t i = 0; i < n; ++i) {
    ++count[static_cast<int>(recs[i].side)][recs[i].key];
  }
  std::uint64_t total = 0;
  for (const auto& [key, r] : count[0]) {
    const auto it = count[1].find(key);
    if (it != count[1].end()) total += r * it->second;
  }
  return total;
}

}  // namespace perfbench
