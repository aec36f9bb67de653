// Perf + correctness — StreamLog ingest: the cost of durability, and
// what the replay path buys back after a crash.
//
// Two questions, one binary:
//  1. Steady state: publishing every record through the partitioned
//     ingest log (memory- and file-backed) must not give back what the
//     lock-free data plane won — acceptance is >= 80% of the log-off
//     laned throughput at the multi-producer point.
//  2. Recovery: with checkpoints + crash injection, offset replay must
//     deliver the SAME join result as an uncrashed run of the same
//     feed, with records_dropped == 0 and zero duplicate-free loss —
//     the bench reports how much throughput the crashed run retains.
//
// Writes BENCH_ingest_recovery.json (provenance-stamped).
//
// Usage: ingest_recovery [scale=1.0] [records=120000]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "datagen/keygen.hpp"
#include "runtime/live_engine.hpp"
#include "support/harness.hpp"
#include "support/workloads.hpp"

namespace fastjoin::bench {
namespace {

/// Disjoint-keyspace per-producer traces (same construction as
/// live_scaling): the expected result set is independent of the
/// producer interleaving, so every mode must agree exactly.
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
    spec.seed = 4000 + static_cast<std::uint64_t>(p);
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

enum class LogMode { kOff, kMemory, kFile };

const char* mode_name(LogMode m) {
  switch (m) {
    case LogMode::kOff: return "off";
    case LogMode::kMemory: return "memory";
    case LogMode::kFile: return "file";
  }
  return "?";
}

struct RunResult {
  double rps = 0.0;
  double wall_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t results = 0;
  std::uint64_t dropped = 0;
  std::uint64_t buffered_lost = 0;
  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  std::uint64_t replayed = 0;
  std::uint64_t truncated = 0;
  double mean_recovery_ms = 0.0;
};

/// One run over `traces`. `crash_every` > 0 injects a worker crash
/// (alternating sides, round-robin instance) after every that many
/// pushed records on producer 0.
RunResult run_once(LogMode mode, std::uint32_t instances,
                   const std::vector<std::vector<Record>>& traces,
                   std::uint64_t crash_every, const std::string& dir) {
  LiveConfig cfg;
  cfg.instances = instances;
  cfg.balancer = false;  // exact cross-mode comparison: no migrations
  if (crash_every > 0) {
    cfg.monitor_period = std::chrono::milliseconds(2);
    cfg.checkpoint_period = std::chrono::milliseconds(10);
  }
  if (mode != LogMode::kOff) {
    cfg.ingest.enabled = true;
    if (mode == LogMode::kFile) {
      cfg.ingest.backend = SegmentBackend::kFile;
      cfg.ingest.dir = dir;
    }
  }
  LiveEngine engine(cfg);
  engine.start();

  std::uint64_t total = 0;
  for (const auto& t : traces) total += t.size();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(traces.size());
  for (std::size_t pi = 0; pi < traces.size(); ++pi) {
    const auto& trace = traces[pi];
    const bool chaos_producer = crash_every > 0 && pi == 0;
    producers.emplace_back([&engine, &trace, chaos_producer,
                            crash_every, instances] {
      const int id = engine.register_producer();
      constexpr std::size_t kBatch = 256;
      std::uint64_t since_crash = 0, crash_no = 0;
      for (std::size_t i = 0; i < trace.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, trace.size() - i);
        engine.push_batch(trace.data() + i, n, id);
        if (chaos_producer) {
          since_crash += n;
          if (since_crash >= crash_every) {
            since_crash = 0;
            const Side side =
                (crash_no % 2 == 0) ? Side::kR : Side::kS;
            engine.crash(side, static_cast<InstanceId>(
                                   (crash_no / 2) % instances));
            ++crash_no;
            // Let checkpoints and the respawn land before feeding on
            // (recovery itself is single-digit ms; this injected stall
            // dominates the crashed run's throughput delta).
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto stats = engine.finish();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RunResult r;
  r.wall_s = wall;
  r.rps = static_cast<double>(total) / wall;
  r.p50_us = stats.p50_latency_us;
  r.p99_us = stats.p99_latency_us;
  r.p999_us = stats.p999_latency_us;
  r.results = stats.results;
  r.dropped = stats.records_dropped;
  r.buffered_lost = stats.buffered_lost;
  r.crashes = stats.crashes;
  r.recoveries = stats.recoveries;
  r.replayed = stats.records_replayed;
  r.truncated = stats.log_truncated;
  r.mean_recovery_ms = stats.mean_recovery_ms;
  return r;
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const double scale = cli_scale(cli);
  const auto total = static_cast<std::uint64_t>(
      cli.get_int("records", 120'000) * scale);

  banner("Perf", "StreamLog ingest: durability cost + crash replay");
  std::cout << "records/run=" << total
            << "  (override with records=N scale=X)\n\n";

  // A wide keyspace keeps the match count O(records): the bench must
  // measure the ingest path, not the result-emission path (a narrow
  // keyspace yields 100x+ amplification and the log cost vanishes in
  // the join's noise).
  const std::uint32_t kInstances = 8;
  const int kProducers = 4;
  const int kKeys = 20'000;
  const double kSkews[] = {0.8, 1.2};

  const std::string file_dir =
      (std::filesystem::temp_directory_path() /
       ("fastjoin_ingest_bench_" + std::to_string(::getpid())))
          .string();

  // --- Part 1: steady-state durability cost. -------------------------
  Table t({"zipf", "log", "rec/s", "vs off", "results"});
  std::ostringstream steady_cells;
  double accept_ratio = 0.0;  // worst StreamLog-on ratio across cells
  bool steady_agree = true;
  bool first = true;
  constexpr LogMode kModes[] = {LogMode::kOff, LogMode::kMemory,
                                LogMode::kFile};
  for (const double zipf : kSkews) {
    const auto traces = make_traces(kProducers, total, kKeys, zipf);
    // Paired rounds: machine throughput on a shared container drifts
    // 2x+ between epochs, so comparing a best-of-N "off" against a
    // best-of-N "memory" measured in a *different* epoch gates on
    // scheduler weather, not the log. Each round runs all three modes
    // back-to-back and yields one ratio; the gate takes the median
    // ratio across rounds (common-mode drift cancels within a round,
    // the median rejects the odd spike).
    constexpr int kRounds = 5;
    double rps[3][kRounds];
    std::uint64_t results[3] = {0, 0, 0};
    for (int round = 0; round < kRounds; ++round) {
      for (int m = 0; m < 3; ++m) {
        const auto one = run_once(kModes[m], kInstances, traces,
                                  /*crash_every=*/0, file_dir);
        rps[m][round] = one.rps;
        if (round == 0) {
          results[m] = one.results;
        } else if (one.results != results[m]) {
          steady_agree = false;  // non-deterministic within a mode
        }
      }
      for (int m = 1; m < 3; ++m) {
        if (results[m] != results[0]) {
          steady_agree = false;
          std::cerr << "RESULT MISMATCH: off=" << results[0] << " "
                    << mode_name(kModes[m]) << "=" << results[m]
                    << "\n";
        }
      }
    }
    const auto median = [](double* v, int n) {
      std::sort(v, v + n);
      return v[n / 2];
    };
    double off_rps[kRounds];  // median() sorts in place; keep the
    std::copy(rps[0], rps[0] + kRounds, off_rps);  // pairing intact
    for (int m = 0; m < 3; ++m) {
      double ratios[kRounds];
      for (int round = 0; round < kRounds; ++round) {
        ratios[round] = rps[m][round] / off_rps[round];
      }
      const double med_ratio = median(ratios, kRounds);
      const double med_rps = median(rps[m], kRounds);
      // Acceptance tracks the memory backend (the engine default);
      // the file backend pays fwrite-per-record for durability and
      // is reported, not gated.
      if (kModes[m] == LogMode::kMemory) {
        accept_ratio = accept_ratio == 0.0
                           ? med_ratio
                           : std::min(accept_ratio, med_ratio);
      }
      t.add_row({zipf, mode_name(kModes[m]), med_rps, med_ratio,
                 static_cast<std::int64_t>(results[m])});
      if (!first) steady_cells << ",\n";
      first = false;
      steady_cells << "    {\"zipf\": " << zipf << ", \"log\": \""
                   << mode_name(kModes[m])
                   << "\", \"records_per_sec\": "
                   << static_cast<std::uint64_t>(med_rps)
                   << ", \"ratio_vs_off\": " << med_ratio
                   << ", \"results\": " << results[m] << "}";
    }
  }
  t.print(std::cout);
  std::cout << "\nsteady-state acceptance: worst memory-log ratio = "
            << accept_ratio << "x (target >= 0.8), results "
            << (steady_agree ? "identical" : "MISMATCH") << "\n";

  // --- Part 2: crash + offset replay. --------------------------------
  const auto traces = make_traces(kProducers, total, kKeys, 1.0);
  const auto clean = run_once(LogMode::kMemory, kInstances, traces,
                              /*crash_every=*/0, file_dir);
  const auto crashed = run_once(LogMode::kMemory, kInstances, traces,
                                /*crash_every=*/total / 24, file_dir);
  const bool replay_exact = crashed.results == clean.results &&
                            crashed.dropped == 0 &&
                            crashed.buffered_lost == 0;
  const double crash_ratio = crashed.rps / clean.rps;
  std::cout << "\nreplay: crashes=" << crashed.crashes
            << " recoveries=" << crashed.recoveries
            << " records_replayed=" << crashed.replayed
            << " log_truncated=" << crashed.truncated
            << "\n        dropped=" << crashed.dropped
            << " buffered_lost=" << crashed.buffered_lost
            << " results=" << crashed.results << " (clean run "
            << clean.results << ") -> "
            << (replay_exact ? "EXACT" : "LOSS") << "\n"
            << "        throughput with crashes = " << crash_ratio
            << "x of clean, mean recovery "
            << crashed.mean_recovery_ms << " ms\n";

  std::filesystem::remove_all(file_dir);

  std::ostringstream workload;
  workload << "records=" << total << " instances=" << kInstances
           << " producers=" << kProducers << " zipf={0.8,1.2}"
           << " crash_every=" << total / 24;
  const std::string meta = json_meta(workload.str());
  std::ofstream json("BENCH_ingest_recovery.json");
  json << "{\n  \"bench\": \"ingest_recovery\",\n  "
       << meta << ",\n"
       << "  \"records_per_run\": " << total << ",\n"
       << "  \"steady_state_results_identical\": "
       << (steady_agree ? "true" : "false") << ",\n"
       << "  \"worst_memory_log_ratio\": " << accept_ratio
       << ",\n  \"target_ratio\": 0.8,\n"
       << "  \"steady_state\": [\n" << steady_cells.str()
       << "\n  ],\n  \"replay\": {\n"
       << "    \"crashes\": " << crashed.crashes
       << ", \"recoveries\": " << crashed.recoveries
       << ",\n    \"records_replayed\": " << crashed.replayed
       << ", \"log_truncated\": " << crashed.truncated
       << ",\n    \"records_dropped\": " << crashed.dropped
       << ", \"buffered_lost\": " << crashed.buffered_lost
       << ",\n    \"results\": " << crashed.results
       << ", \"clean_results\": " << clean.results
       << ", \"exact\": " << (replay_exact ? "true" : "false")
       << ",\n    \"throughput_ratio_vs_clean\": " << crash_ratio
       << ", \"mean_recovery_ms\": " << crashed.mean_recovery_ms
       << ",\n    \"clean_latency_us\": {\"p50\": " << clean.p50_us
       << ", \"p99\": " << clean.p99_us << ", \"p999\": "
       << clean.p999_us << "}"
       << ",\n    \"crashed_latency_us\": {\"p50\": " << crashed.p50_us
       << ", \"p99\": " << crashed.p99_us << ", \"p999\": "
       << crashed.p999_us << "}\n  }\n}\n";
  std::cout << "wrote BENCH_ingest_recovery.json\n";

  const bool ratio_ok = accept_ratio >= 0.8 || scale < 1.0;
  return steady_agree && replay_exact && ratio_ok ? 0 : 1;
}

}  // namespace
}  // namespace fastjoin::bench

int main(int argc, char** argv) {
  return fastjoin::bench::run(argc, argv);
}
