// Perf — live data-plane scaling sweep: records/sec/core across
// producers × workers × skew, each laned cell measured against the bare
// join kernel run on every core over the same feed.
//
// This sweep is the CI perf-smoke surface: a grid of cells whose
// laned/kernel speedup ratios are compared against the committed
// BENCH_live_scaling.json by scripts/perf_smoke.py. Ratios, not absolute
// rec/s, are gated: absolute throughput differs across machines far
// more than the ratio of two legs run in the same process. The
// reference leg is the kernel alone: one JoinStore per side, insert +
// probe_count in stream order, one independent copy per core. It runs
// none of the data plane (routing, lanes, worker threads), so it cannot
// move with it, and a data-plane regression shows as a falling ratio.
// Both legs occupy every core, so host load that slows some of the
// cores slows both. (A one-thread kernel reference drifted by up to 60%
// between runs seconds apart on a shared 4-vCPU VM while the laned leg
// barely moved, so the gated ratio drifted with it.) The ratio still
// depends on the core count, which the JSON records and perf_smoke.py
// checks.
//
// Each cell also reports the engine's fixed cost, `fixed_ms`: start()
// plus finish() on an empty feed. The feed is long enough that every
// laned leg runs at least kFixedCostMultiple × fixed_ms, so the ratio
// measures per-record cost rather than startup and shutdown; a cell
// under that floor fails the bench. The grid runs `reps` rounds; in
// each, every feed's kernel leg runs and then the laned legs of the
// feed's cells. A cell's speedup is the median over rounds of the
// round's laned rec/s over its kernel rec/s. A run's speed is random
// as a whole (it barely averages out over a longer feed), so the
// estimate tightens with the number of rounds, not their length. The
// join results must match exactly across legs, kernel copies and
// rounds; a mismatch fails the bench regardless of the numbers.
//
// Usage: live_scaling [scale=1.0] [records=1200000] [reps=50]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "datagen/keygen.hpp"
#include "engine/join_store.hpp"
#include "runtime/live_engine.hpp"
#include "runtime/placement.hpp"
#include "support/harness.hpp"
#include "support/workloads.hpp"

namespace fastjoin::bench {
namespace {

/// A laned leg must run at least this many times the engine's fixed
/// cost, or the cell measures startup and shutdown.
constexpr double kFixedCostMultiple = 20.0;
/// Empty-feed runs whose median is a cell's fixed cost.
constexpr int kFixedCostReps = 7;

/// Disjoint-keyspace per-producer traces: the expected result set is
/// independent of the producer interleaving, so the kernel and every
/// laned run must agree exactly. Record i of producer p has timestamp
/// i × producers + p, so stream order visits the traces round-robin.
std::vector<std::vector<Record>> make_traces(int n_producers,
                                             std::uint64_t total,
                                             int keys_per_producer,
                                             double zipf) {
  std::vector<std::vector<Record>> traces(n_producers);
  const std::uint64_t per = total / n_producers;
  for (int p = 0; p < n_producers; ++p) {
    KeyStreamSpec spec;
    spec.num_keys = keys_per_producer;
    spec.zipf_s = zipf;
    spec.seed = 2000 + static_cast<std::uint64_t>(p);
    KeyGenerator gen(spec);
    Xoshiro256 rng(spec.seed ^ 0xbeef);
    auto& out = traces[p];
    out.reserve(per);
    std::uint64_t r_seq = 0, s_seq = 0;
    for (std::uint64_t i = 0; i < per; ++i) {
      Record rec;
      rec.side = rng.next_below(2) ? Side::kS : Side::kR;
      rec.key = gen() * static_cast<KeyId>(n_producers) +
                static_cast<KeyId>(p);
      rec.seq = rec.side == Side::kR ? r_seq++ : s_seq++;
      rec.ts = i * n_producers + static_cast<std::uint64_t>(p);
      rec.payload = rec.ts;
      out.push_back(rec);
    }
  }
  return traces;
}

struct RunResult {
  double rps = 0.0;
  double rps_per_core = 0.0;
  double wall_s = 0.0;
  std::uint64_t results = 0;
};

RunResult make_result(std::uint64_t records, double wall_s,
                      std::size_t cores, std::uint64_t results) {
  RunResult r;
  r.wall_s = wall_s;
  r.rps = static_cast<double>(records) / wall_s;
  r.rps_per_core = r.rps / static_cast<double>(cores);
  r.results = results;
  return r;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

LiveConfig laned_config(std::uint32_t instances) {
  LiveConfig cfg;
  cfg.instances = instances;
  // Balancer off: migration timing doubles or halves a run's wall
  // clock at random, which is exactly the noise a ratio-gated CI
  // bench cannot afford. This sweep isolates data-plane plumbing cost.
  cfg.balancer = false;
  return cfg;
}

/// One laned run: every producer pushes its trace in batches on its own
/// thread; the wall clock covers the pushes and finish().
RunResult laned_rep(std::uint32_t instances,
                    const std::vector<std::vector<Record>>& traces,
                    std::size_t cores) {
  std::uint64_t total = 0;
  for (const auto& t : traces) total += t.size();
  LiveEngine engine(laned_config(instances));
  engine.start();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(traces.size());
  for (const auto& trace : traces) {
    producers.emplace_back([&engine, &trace] {
      const int id = engine.register_producer();
      constexpr std::size_t kBatch = 256;
      for (std::size_t i = 0; i < trace.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, trace.size() - i);
        engine.push_batch(trace.data() + i, n, id);
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto stats = engine.finish();
  return make_result(total, seconds_since(t0), cores, stats.results);
}

/// The bare join kernel over the traces in stream order: each record
/// probes the opposite side's store, then is stored on its own side.
/// Returns the join result count.
std::uint64_t run_kernel(const std::vector<std::vector<Record>>& traces) {
  JoinStore stores[2];
  std::uint64_t results = 0;
  for (std::size_t i = 0; i < traces.front().size(); ++i) {
    for (const auto& trace : traces) {
      const Record& rec = trace[i];
      results +=
          stores[static_cast<int>(other_side(rec.side))].probe_count(rec);
      stores[static_cast<int>(rec.side)].insert(
          rec.key, StoredTuple{rec.seq, rec.payload, rec.ts, 0});
    }
  }
  return results;
}

/// The kernel on every core: `cores` threads each run their own copy
/// over the whole feed. Rates count every copy's records; a copy that
/// disagrees with the others reports 0 results, a mismatch.
RunResult kernel_rep(const std::vector<std::vector<Record>>& traces,
                     std::size_t cores) {
  std::uint64_t total = 0;
  for (const auto& t : traces) total += t.size();
  std::vector<std::uint64_t> results(cores);
  std::vector<std::thread> copies;
  copies.reserve(cores);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cores; ++i) {
    copies.emplace_back(
        [&traces, &results, i] { results[i] = run_kernel(traces); });
  }
  for (auto& t : copies) t.join();
  const double wall_s = seconds_since(t0);
  const bool agree =
      std::all_of(results.begin(), results.end(),
                  [&](std::uint64_t r) { return r == results[0]; });
  return make_result(total * cores, wall_s, cores, agree ? results[0] : 0);
}

/// The engine's fixed cost in milliseconds: start() + finish() with no
/// records, the median of kFixedCostReps runs.
double fixed_ms(std::uint32_t instances) {
  std::vector<double> ms;
  for (int i = 0; i < kFixedCostReps; ++i) {
    LiveEngine engine(laned_config(instances));
    const auto t0 = std::chrono::steady_clock::now();
    engine.start();
    (void)engine.finish();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

struct Cell {
  int producers = 0;
  std::uint32_t workers = 0;
  double zipf = 0.0;
  double fixed_ms = 0.0;
  RunResult kernel, laned;  ///< each leg's best round, reported only
  std::vector<double> ratios;  ///< per round: laned rec/s / kernel rec/s
  bool results_agree = true;

  /// Fold in one round's (kernel, laned) pair. Every round of both legs
  /// must produce the same join results.
  void add(const RunResult& k, const RunResult& l) {
    const bool first = ratios.empty();
    if (l.results != k.results || (!first && k.results != kernel.results)) {
      results_agree = false;
    }
    if (first || k.rps > kernel.rps) kernel = k;
    if (first || l.rps > laned.rps) laned = l;
    ratios.push_back(l.rps / k.rps);
  }
  /// The gated quantity: the median of the per-round ratios.
  double speedup() const {
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  }
};

std::string json_run(const RunResult& r) {
  std::ostringstream os;
  os << "{\"records_per_sec\": " << static_cast<std::uint64_t>(r.rps)
     << ", \"records_per_sec_per_core\": "
     << static_cast<std::uint64_t>(r.rps_per_core)
     << ", \"wall_s\": " << r.wall_s << ", \"results\": " << r.results
     << "}";
  return os.str();
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const double scale = cli_scale(cli);
  const auto total = static_cast<std::uint64_t>(
      cli.get_int("records", 1'200'000) * scale);
  const int reps =
      std::max(1, static_cast<int>(cli.get_int("reps", 50)));
  const std::size_t cores =
      std::max<std::size_t>(1, Topology::detect().cpus());

  banner("Perf", "live data-plane scaling: producers x workers x skew");
  std::cout << "records/run=" << total << "  rounds=" << reps
            << " (median laned/kernel ratio kept)  cores=" << cores
            << "  (override with records=N reps=K scale=X)\n\n";

  const int kProducers[] = {1, 2, 4};
  const std::uint32_t kWorkers[] = {2, 4, 8};
  const double kSkews[] = {0.8, 1.2};

  std::vector<Cell> grid;
  for (const auto producers : kProducers) {
    for (const auto zipf : kSkews) {
      for (const auto workers : kWorkers) {
        Cell c;
        c.producers = producers;
        c.workers = workers;
        c.zipf = zipf;
        c.fixed_ms = fixed_ms(workers);
        grid.push_back(c);
      }
    }
  }
  // Every feed is built once and stays in memory, and each round runs
  // every cell once: a cell's rounds spread over the whole run, so a
  // slow phase of the host weighs on every cell alike instead of on the
  // cells of one feed. Within a round, a feed's kernel leg runs once,
  // right before the laned legs of its cells, which it pairs with.
  std::vector<std::vector<std::vector<Record>>> feeds;
  for (const auto producers : kProducers) {
    for (const auto zipf : kSkews) {
      feeds.push_back(make_traces(producers, total, 400, zipf));
    }
  }
  for (int round = 0; round < reps; ++round) {
    auto cell = grid.begin();
    for (const auto& traces : feeds) {
      const RunResult kernel = kernel_rep(traces, cores);
      for (const auto workers : kWorkers) {
        (cell++)->add(kernel, laned_rep(workers, traces, cores));
      }
    }
  }

  bool results_agree = true;
  bool above_floor = true;
  for (const auto& c : grid) {
    if (!c.results_agree) {
      results_agree = false;
      std::cerr << "RESULT MISMATCH at producers=" << c.producers
                << " workers=" << c.workers << " zipf=" << c.zipf
                << ": kernel=" << c.kernel.results
                << " laned=" << c.laned.results << "\n";
    }
    if (c.laned.wall_s * 1e3 < kFixedCostMultiple * c.fixed_ms) {
      above_floor = false;
      std::cerr << "FEED TOO SHORT at producers=" << c.producers
                << " workers=" << c.workers << " zipf=" << c.zipf
                << ": laned wall " << c.laned.wall_s * 1e3 << " ms < "
                << kFixedCostMultiple << " x fixed " << c.fixed_ms
                << " ms\n";
    }
  }

  Table t({"producers", "workers", "zipf", "fixed ms", "kernel rec/s/core",
           "laned rec/s/core", "laned/kernel"});
  std::ostringstream cells;
  bool first = true;
  double worst_multi = 0.0;  // worst multi-producer speedup in the grid

  for (const auto& c : grid) {
    const double speedup = c.speedup();
    if (c.producers > 1) {
      worst_multi =
          worst_multi == 0.0 ? speedup : std::min(worst_multi, speedup);
    }
    t.add_row({static_cast<std::int64_t>(c.producers),
               static_cast<std::int64_t>(c.workers), c.zipf, c.fixed_ms,
               c.kernel.rps_per_core, c.laned.rps_per_core, speedup});
    if (!first) cells << ",\n";
    first = false;
    cells << "    {\"producers\": " << c.producers
          << ", \"workers\": " << c.workers << ", \"zipf\": " << c.zipf
          << ", \"fixed_ms\": " << c.fixed_ms
          << ",\n     \"kernel\": " << json_run(c.kernel)
          << ",\n     \"laned\": " << json_run(c.laned)
          << ",\n     \"round_speedups\": [";
    for (std::size_t i = 0; i < c.ratios.size(); ++i) {
      cells << (i ? ", " : "") << c.ratios[i];
    }
    cells << "],\n     \"speedup\": " << speedup << "}";
  }
  t.print(std::cout);
  std::cout << "\nworst multi-producer laned/kernel = " << worst_multi
            << "x, results "
            << (results_agree ? "identical" : "MISMATCH") << ", feed "
            << (above_floor ? "above" : "BELOW") << " the "
            << kFixedCostMultiple << "x fixed-cost floor\n";

  std::ostringstream workload;
  workload << "records=" << total << " reps=" << reps
           << " producers={1,2,4} workers={2,4,8} zipf={0.8,1.2}";
  std::ofstream json("BENCH_live_scaling.json");
  json << "{\n  \"bench\": \"live_scaling\",\n  "
       << json_meta(workload.str()) << ",\n"
       << "  \"records_per_run\": " << total << ",\n"
       << "  \"cores\": " << cores << ",\n"
       << "  \"results_identical\": "
       << (results_agree ? "true" : "false") << ",\n"
       << "  \"worst_multi_producer_speedup\": " << worst_multi
       << ",\n  \"cells\": [\n"
       << cells.str() << "\n  ]\n}\n";
  std::cout << "wrote BENCH_live_scaling.json\n";
  // Exactness and the run-length floor are the bench's own gates; the
  // perf regression gate (cell ratios vs the committed baseline) is
  // scripts/perf_smoke.py.
  return results_agree && above_floor ? 0 : 1;
}

}  // namespace
}  // namespace fastjoin::bench

int main(int argc, char** argv) {
  return fastjoin::bench::run(argc, argv);
}
