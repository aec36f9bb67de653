// Perf — telemetry overhead: the instrumented live runtime vs the same
// workload compiled with FASTJOIN_NO_TELEMETRY.
//
// The telemetry subsystem's contract is "always on": counters on the
// producer batch path, 1-in-64 latency sampling in the workers, flight
// events per batch and per control message, registry sampling in the
// monitor. That is only tenable if the instrumented build keeps >= 97%
// of the stripped build's throughput on the multi-producer live
// workload. This bench proves it across two builds of this same file:
//
//   build-notel (cmake -DFASTJOIN_NO_TELEMETRY=ON):
//     runs the workload rounds and writes the per-round records/s to
//     `baseline=` (default telemetry_baseline.txt).
//   default build:
//     runs the identical rounds, reads the baseline file, and writes
//     BENCH_telemetry_overhead.json with both medians and the ratio
//     (target >= 0.97). It also runs a chaos leg — skewed feed,
//     checkpoints, ingest replay, one induced crash — and exports the
//     migration trace (trace_migration.json, Perfetto-loadable) and a
//     flight-recorder dump (flight_sample.dump) as sample artifacts.
//
// scripts/bench_telemetry_overhead.sh builds both and runs them
// back-to-back. Usage: telemetry_overhead [scale=1.0] [records=120000]
//   [rounds=5] [baseline=telemetry_baseline.txt]
#include <algorithm>
#include <chrono>
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
#include "telemetry/telemetry.hpp"

namespace fastjoin::bench {
namespace {

/// Disjoint-keyspace per-producer traces, same construction as
/// live_scaling so the two benches measure the same data plane.
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
    Xoshiro256 rng(spec.seed ^ 0xfeed);
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

/// One multi-producer run; returns records/s over push + drain.
double run_round(const std::vector<std::vector<Record>>& traces,
                 std::uint32_t instances) {
  LiveConfig cfg;
  cfg.instances = instances;
  cfg.balancer = true;
  LiveEngine engine(cfg);
  engine.start();

  std::uint64_t total = 0;
  for (const auto& t : traces) total += t.size();

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
  (void)engine.finish();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(total) / wall;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

[[maybe_unused]] std::string json_array(const std::vector<double>& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << static_cast<std::uint64_t>(v[i]);
  }
  os << ']';
  return os.str();
}

#ifndef FASTJOIN_NO_TELEMETRY
/// Chaos leg: skewed feed + checkpoints + ingest replay + one induced
/// crash, then export the migration trace and a flight-recorder dump.
/// Returns the trace JSON (also written to trace_migration.json).
std::string run_chaos_leg(std::uint64_t records) {
  telemetry::TraceLog::global().clear();  // artifact holds only this leg

  LiveConfig cfg;
  cfg.instances = 4;
  cfg.balancer = true;
  cfg.monitor_period = std::chrono::milliseconds(10);
  cfg.min_heaviest_load = 50.0;  // migrate eagerly on the skewed feed
  cfg.checkpoint_period = std::chrono::milliseconds(30);
  cfg.ingest.enabled = true;
  LiveEngine engine(cfg);
  engine.start();

  const auto traces = make_traces(2, records, 400, /*zipf=*/1.2);
  std::vector<std::thread> producers;
  for (std::size_t pi = 0; pi < traces.size(); ++pi) {
    const auto& trace = traces[pi];
    const bool saboteur = pi == 0;
    producers.emplace_back([&engine, &trace, saboteur] {
      const int id = engine.register_producer();
      constexpr std::size_t kBatch = 256;
      for (std::size_t i = 0; i < trace.size(); i += kBatch) {
        if (saboteur && i * 2 >= trace.size() &&
            (i - kBatch) * 2 < trace.size()) {
          engine.crash(Side::kR, 0);  // mid-feed: respawn + replay
        }
        const std::size_t n = std::min(kBatch, trace.size() - i);
        engine.push_batch(trace.data() + i, n, id);
        if (i % (kBatch * 16) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  // Let the monitor finish in-flight migrations/checkpoints.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const LiveStats stats = engine.finish();

  std::ostringstream trace;
  telemetry::TraceLog::global().write_chrome_trace(trace);
  telemetry::TraceLog::global().write_chrome_trace(
      std::string("trace_migration.json"));
  telemetry::flight_dump(std::string("flight_sample.dump"));
  std::cout << "chaos leg: " << stats.migrations << " migrations, "
            << stats.crashes << " crashes, " << stats.recoveries
            << " recoveries; wrote trace_migration.json + "
               "flight_sample.dump\n";
  return trace.str();
}
#endif  // !FASTJOIN_NO_TELEMETRY

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const double scale = cli_scale(cli);
  const auto records = static_cast<std::uint64_t>(
      cli.get_int("records", 120'000) * scale);
  const auto rounds =
      static_cast<int>(cli.get_int("rounds", 5));
  const std::string baseline_path =
      cli.get_str("baseline", "telemetry_baseline.txt");

#ifdef FASTJOIN_NO_TELEMETRY
  banner("Perf", "telemetry overhead — NO_TELEMETRY baseline leg");
#else
  banner("Perf", "telemetry overhead — instrumented leg");
#endif
  std::cout << "records/round=" << records << " rounds=" << rounds
            << " producers=4 instances=8\n\n";

  const auto traces = make_traces(4, records, 500, /*zipf=*/1.0);
  (void)run_round(traces, 8);  // warmup, not recorded
  std::vector<double> rps;
  for (int r = 0; r < rounds; ++r) {
    rps.push_back(run_round(traces, 8));
    std::cout << "  round " << r << ": "
              << static_cast<std::uint64_t>(rps.back()) << " rec/s\n";
  }
  const double med = median(rps);
  std::cout << "median: " << static_cast<std::uint64_t>(med)
            << " rec/s\n";

#ifdef FASTJOIN_NO_TELEMETRY
  std::ofstream base(baseline_path);
  for (double v : rps) base << v << "\n";
  std::cout << "wrote baseline " << baseline_path << "\n";
  return base ? 0 : 1;
#else
  // Telemetry must demonstrably have been on during the measured runs.
  const std::uint64_t flight_events =
      telemetry::flight_recorded_total();

  std::vector<double> base_rps;
  {
    std::ifstream base(baseline_path);
    double v = 0.0;
    while (base >> v) base_rps.push_back(v);
  }
  const double base_med = median(base_rps);
  const bool have_baseline = !base_rps.empty();
  const double ratio = have_baseline ? med / base_med : 0.0;

  const std::string trace_json = run_chaos_leg(records / 2);
  const char* kSpans[] = {"migrate",  "extract",    "hold",
                          "hold_ack", "route_publish", "transfer",
                          "checkpoint", "respawn",  "replay"};
  bool all_spans = true;
  std::ostringstream span_flags;
  for (std::size_t i = 0; i < std::size(kSpans); ++i) {
    const bool found =
        trace_json.find(std::string("\"name\": \"") + kSpans[i] +
                        "\"") != std::string::npos;
    // "absorb" appears unless that migration aborted; the required
    // phases above must all be present.
    all_spans = all_spans && found;
    span_flags << (i ? ", " : "") << '"' << kSpans[i]
               << "\": " << (found ? "true" : "false");
  }

  const bool pass = have_baseline && ratio >= 0.97;
  if (have_baseline) {
    std::cout << "\nbaseline median: "
              << static_cast<std::uint64_t>(base_med)
              << " rec/s  ratio: " << ratio << " (target >= 0.97)\n";
  } else {
    std::cout << "\nno baseline file (" << baseline_path
              << ") — run the FASTJOIN_NO_TELEMETRY build first "
                 "(scripts/bench_telemetry_overhead.sh does both)\n";
  }

  std::ostringstream workload;
  workload << "records=" << records << " rounds=" << rounds
           << " producers=4 instances=8 zipf=1.0";
  std::ofstream json("BENCH_telemetry_overhead.json");
  json << "{\n  \"bench\": \"telemetry_overhead\",\n  "
       << json_meta(workload.str()) << ",\n"
       << "  \"records_per_round\": " << records << ",\n"
       << "  \"instrumented_rps\": " << json_array(rps) << ",\n"
       << "  \"instrumented_median_rps\": "
       << static_cast<std::uint64_t>(med) << ",\n"
       << "  \"baseline_rps\": " << json_array(base_rps) << ",\n"
       << "  \"baseline_median_rps\": "
       << static_cast<std::uint64_t>(base_med) << ",\n"
       << "  \"throughput_ratio\": " << ratio << ",\n"
       << "  \"target_ratio\": 0.97,\n"
       << "  \"flight_events_recorded\": " << flight_events << ",\n"
       << "  \"trace_spans_present\": {" << span_flags.str() << "},\n"
       << "  \"all_migration_spans_present\": "
       << (all_spans ? "true" : "false") << ",\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote BENCH_telemetry_overhead.json\n";
  return (pass && all_spans) || scale < 1.0 ? 0 : 1;
#endif
}

}  // namespace
}  // namespace fastjoin::bench

int main(int argc, char** argv) {
  return fastjoin::bench::run(argc, argv);
}
