// Repository benchmark: entry point, repetition loop and result line.
//
//   perfbench --workload <mp_hotkeys|serve_wide> --seed N
//             --seconds S --trace <0|1> [--git-sha X] [--src-digest Y]
//             [--run-dir D] [--out-dir D]
//   perfbench --self-test      (reference, percentile and span checks)
//   perfbench --list-metrics   (names and units, as in BENCHMARK.json)
//
// A run generates the workload's input from the seed, runs one
// discarded repetition (the first repetition after an idle pause is
// much slower), then repeats the workload on a fresh system until
// --seconds are spent and reports medians. Every repetition checks its
// output against the reference. The last stdout line is the result:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// The same binary is the multiproc worker (re-executed with
// --multiproc-worker).
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "measure.hpp"
#include "planes.hpp"
#include "replays.hpp"
#include "runtime/multiproc.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string run_dir = ".bench_build/perfbench-run";
  std::string out_dir = ".bench_build/perfbench-out";
};

bool parse_args(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--src-digest") a->src_digest = v;
    else if (k == "--run-dir") a->run_dir = v;
    else if (k == "--out-dir") a->out_dir = v;
    else {
      *err = "unknown argument " + k;
      return false;
    }
  }
  if (!(a->seconds > 0.0)) {
    *err = "--seconds must be positive";
    return false;
  }
  return true;
}

/// The workload's input, generated from the seed; the planes see only
/// this.
struct Inputs {
  Workload w;
  Shape shape;
  std::vector<Record> records;  ///< stamped, arrival order
  std::vector<fastjoin::server::ClientRecord> client;  ///< serve_wide
  std::uint64_t expected = 0;
};

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in{w, shape_of(w), {}, {}, 0};
  switch (w) {
    case Workload::kMpHotkeys:
      in.records = zipf_trace(seed, in.shape.records);
      break;
    case Workload::kServeWide:
      in.client = uniform_client_records(seed, in.shape.records, in.shape.keyspace);
      in.records = stamp(in.client);
      break;
  }
  in.expected = expected_matches(in.records);
  return in;
}

RepResult run_plane(const Inputs& in, const PlaneOptions& opt) {
  switch (in.w) {
    case Workload::kMpHotkeys:
      return run_multiproc(in.records, in.shape, in.expected, opt);
    case Workload::kServeWide:
      return run_serve(in.client, in.shape, in.expected, opt);
  }
  return {};
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const RepResult& r, const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& e : r.errors) std::cout << "FAIL " << what << ": " << e << "\n";
  }
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : -1.0);
  return buf;
}

void print_result(const Totals& t, const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << fmt(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

/// The end-to-end figures of a set of repetitions: medians of the
/// per-repetition figures; latency percentiles over the pooled samples.
struct EndToEnd {
  double throughput = 0, setup = 0, rss = 0;
  std::vector<double> ack, query, late;
  std::vector<double> per_rep_throughput, per_rep_setup;
};

EndToEnd aggregate(const std::vector<RepResult>& reps) {
  EndToEnd e;
  std::vector<double> rss;
  for (const RepResult& r : reps) {
    e.per_rep_throughput.push_back(r.throughput_rps);
    e.per_rep_setup.push_back(r.setup_s);
    rss.push_back(r.rss_peak_mb);
    e.ack.insert(e.ack.end(), r.ack_us.begin(), r.ack_us.end());
    e.query.insert(e.query.end(), r.query_us.begin(), r.query_us.end());
    e.late.insert(e.late.end(), r.late_us.begin(), r.late_us.end());
  }
  e.throughput = median(e.per_rep_throughput);
  e.setup = median(e.per_rep_setup);
  e.rss = median(rss);
  return e;
}

void print_sample_line(const char* what, const std::vector<double>& v) {
  const auto hp = highest_supported_percentile(v);
  std::cout << "  " << what << ": n=" << hp.samples
            << " p50=" << fmt(quantile(v, 0.5)) << " p99=" << fmt(quantile(v, 0.99))
            << " highest supported=p" << fmt(hp.pct) << " " << fmt(hp.value)
            << " max=" << fmt(quantile(v, 1.0)) << "\n";
  // Where p99 sits relative to the slow population (noise trap: a
  // cutoff at the edge of a stall population swings from run to run).
  std::cout << "   ";
  for (const double q : {0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    std::cout << " q" << q << "=" << fmt(quantile(v, q));
  }
  std::cout << "\n";
}

/// Every per-layer metric a traced run reports, with its unit. The
/// names match "per_layer" in BENCHMARK.json.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayerMetrics[] = {
    {"runtime.push_batch_us_p50", "us"},
    {"runtime.push_batch_us_p99", "us"},
    {"runtime.lane_backpressure", "count"},
    {"runtime.engine_cpu_s", "s"},
    {"runtime.busiest_thread_cpu_s", "s"},
    {"runtime.finish_s", "s"},
    {"runtime.publish_ns_per_rec", "ns"},
    {"runtime.router_cpu_s", "s"},
    {"runtime.worker_cpu_s_max", "s"},
    {"runtime.worker_cpu_skew", "ratio"},
    {"runtime.checkpoints", "count"},
    {"runtime.checkpoint_tuples_per_rec", "count"},
    {"runtime.inproc_didi_rps", "1/s"},
    {"runtime.migrations", "count"},
    {"runtime.balancer_on_off_ratio", "ratio"},
    {"engine.insert_ns", "ns"},
    {"engine.insert_ops_per_rec", "count"},
    {"engine.find_ns", "ns"},
    {"engine.find_ops_per_rec", "count"},
    {"engine.walk_ns_per_tuple", "ns"},
    {"engine.tuples_per_probe", "count"},
    {"engine.matches_per_rec", "count"},
    {"ingest.append_ns", "ns"},
    {"ingest.append_ops_per_rec", "count"},
    {"net.data_encode_ns_per_entry", "ns"},
    {"net.data_decode_ns_per_entry", "ns"},
    {"net.entries_per_rec", "count"},
    {"net.crc32c_ns_per_kib", "ns"},
    {"net.crc32c_kib_per_rec", "KiB"},
    {"net.snapshot_encode_ns_per_tuple", "ns"},
    {"net.snapshot_decode_ns_per_tuple", "ns"},
    {"net.snapshot_tuples", "count"},
    {"net.frame_rtt_us", "us"},
    {"net.bytes_per_rec", "B"},
    {"server.admit_ns", "ns"},
    {"server.admits_per_rec", "count"},
    {"server.append_decode_ns_per_rec", "ns"},
    {"server.append_decode_recs_per_rec", "count"},
    {"core.select_keys_us", "us"},
    {"ledger.modeled_ns_per_rec", "ns"},
    {"ledger.e2e_ns_per_rec", "ns"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// The end-to-end metrics of an untraced run (BENCHMARK.json
/// "end_to_end").
constexpr LayerSpec kEndToEndMetrics[] = {
    {"throughput_rps", "1/s"}, {"ack_p50_us", "us"},   {"ack_p99_us", "us"},
    {"query_p50_us", "us"},    {"query_p99_us", "us"}, {"setup_s", "s"},
    {"rss_peak_mb", "MiB"},
};

int run_timed(const Args& args, const Inputs& in, PlaneOptions opt) {
  Totals totals;
  // Discarded repetition: the first one after an idle pause runs
  // 35-75 % slow on both planes. Its output is still checked.
  totals.add(run_plane(in, opt), "warm-up repetition");
  ++opt.rep_id;
  std::vector<RepResult> reps;
  const double t0 = now_s();
  constexpr std::size_t kMinReps = 3, kMaxReps = 200;
  for (;;) {
    const double a = now_s();
    reps.push_back(run_plane(in, opt));
    ++opt.rep_id;
    const RepResult& r = reps.back();
    totals.add(r, "repetition");
    const double took = now_s() - a;
    std::cout << "rep " << reps.size() << ": throughput_rps=" << fmt(r.throughput_rps)
              << " setup_s=" << fmt(r.setup_s) << " rss_peak_mb=" << fmt(r.rss_peak_mb)
              << " wall_s=" << fmt(took) << "\n";
    const double spent = now_s() - t0;
    const double per_rep = spent / static_cast<double>(reps.size());
    if (reps.size() >= kMaxReps) break;
    if (reps.size() >= kMinReps && spent + per_rep > args.seconds) break;
  }
  const EndToEnd e = aggregate(reps);
  print_sample_line("ack_us", e.ack);
  print_sample_line("query_us", e.query);
  if (!e.late.empty()) {
    print_sample_line("generator_late_us", e.late);
  }
  std::cout << "repetitions=" << reps.size() << " throughput IQR/median="
            << fmt((quantile(e.per_rep_throughput, 0.75) -
                    quantile(e.per_rep_throughput, 0.25)) /
                   e.throughput)
            << "\n";
  const double values[] = {e.throughput,
                           quantile(e.ack, 0.5),
                           quantile(e.ack, 0.99),
                           quantile(e.query, 0.5),
                           quantile(e.query, 0.99),
                           e.setup,
                           e.rss};
  std::vector<Metric> metrics;
  for (std::size_t i = 0; i < std::size(kEndToEndMetrics); ++i) {
    metrics.push_back({kEndToEndMetrics[i].name, values[i], kEndToEndMetrics[i].unit});
  }
  print_result(totals, metrics);
  return 0;
}

/// Median of each layer figure over the traced repetitions.
Layers median_layers(const std::vector<RepResult>& reps) {
  std::map<std::string, std::vector<double>> all;
  for (const RepResult& r : reps) {
    for (const auto& [k, v] : r.layers) all[k].push_back(v);
  }
  Layers out;
  for (const auto& [k, v] : all) out[k] = median(v);
  return out;
}

void merge_missing(Layers& into, const Layers& from) {
  for (const auto& [k, v] : from) into.emplace(k, v);
}

int run_traced(const Args& args, const Inputs& in, PlaneOptions opt) {
  Totals totals;
  Tracer tracer(true);
  totals.add(run_plane(in, opt), "warm-up repetition");
  ++opt.rep_id;

  // Untraced and traced repetitions alternate; their difference in the
  // headline figure is the tracing overhead.
  std::vector<RepResult> plain, traced;
  for (int pair = 0; pair < 2; ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool with_trace = (leg == 1) != (pair % 2 == 1);
      PlaneOptions o = opt;
      o.tracer = with_trace ? &tracer : nullptr;
      RepResult r = run_plane(in, o);
      ++opt.rep_id;
      totals.add(r, with_trace ? "traced repetition" : "repetition");
      (with_trace ? traced : plain).push_back(std::move(r));
    }
  }
  const EndToEnd ep = aggregate(plain), et = aggregate(traced);
  // The open loop's throughput is its offered rate, so its overhead
  // shows in the append latency instead.
  const double overhead_pct =
      in.w == Workload::kServeWide
          ? 100.0 * (quantile(et.ack, 0.5) / quantile(ep.ack, 0.5) - 1.0)
          : 100.0 * (ep.throughput / et.throughput - 1.0);

  Layers L = median_layers(traced);
  PlaneOptions pass = opt;
  pass.tracer = &tracer;
  // serve_wide never calls publish(): one router pass over its records.
  if (L.count("runtime.publish_ns_per_rec") == 0) {
    Shape pass_shape = shape_of(Workload::kMpHotkeys);
    pass_shape.records = in.records.size();
    pass_shape.warmup = in.records.size() / 2;
    RepResult r = run_multiproc(in.records, pass_shape, in.expected, pass);
    ++pass.rep_id;
    totals.add(r, "router pass");
    merge_missing(L, r.layers);
  }

  // The in-process plane on the paper's DiDi trace: 2 instances per
  // side, balancer off (the timed configuration it would have), then
  // LiveConfig defaults as the balancer-on diagnostic, reported
  // without a gate because its decisions depend on timing.
  const Shape ds = didi_shape();
  const std::vector<Record> didi = didi_trace(args.seed, ds.records);
  const std::uint64_t didi_expected = expected_matches(didi);
  double off_rps = 0.0;
  {
    RepResult r = run_inproc(didi, ds, didi_expected, pass);
    totals.add(r, "in-process DiDi pass");
    merge_missing(L, r.layers);
    off_rps = r.throughput_rps;
    L["runtime.inproc_didi_rps"] = off_rps;
  }
  {
    PlaneOptions on = pass;
    on.balancer = true;
    RepResult r = run_inproc(didi, ds, didi_expected, on);
    totals.add(r, "balancer-on diagnostic");
    L["runtime.migrations"] = r.layers.at("runtime.migrations");
    L["runtime.balancer_on_off_ratio"] = r.throughput_rps / off_rps;
  }

  merge_missing(L, replay_modules(in.records, in.shape,
                                  in.w == Workload::kServeWide, didi));
  // Reads a layer figure without inserting it (absent ones fail below).
  auto at = [&L](const char* k) {
    const auto it = L.find(k);
    return it == L.end() ? 0.0 : it->second;
  };
  // The engine replay's walk finds every match exactly once.
  ++totals.attempted;
  if (std::llround(at("engine.matches_per_rec") *
                   static_cast<double>(in.records.size())) !=
      static_cast<long long>(in.expected)) {
    ++totals.failed;
    std::cout << "FAIL engine replay match count != reference\n";
  }

  // Reconciliation: module cost x ops per record beside the end-to-end
  // cost per record (wall time; a parallel plane divides the sum).
  const double modeled =
      at("engine.insert_ns") * at("engine.insert_ops_per_rec") +
      at("engine.find_ns") * at("engine.find_ops_per_rec") +
      at("engine.walk_ns_per_tuple") * at("engine.tuples_per_probe") +
      at("ingest.append_ns") * at("ingest.append_ops_per_rec") +
      (at("net.data_encode_ns_per_entry") + at("net.data_decode_ns_per_entry")) *
          at("net.entries_per_rec") +
      at("net.crc32c_ns_per_kib") * at("net.crc32c_kib_per_rec") +
      (at("net.snapshot_encode_ns_per_tuple") +
       at("net.snapshot_decode_ns_per_tuple")) *
          at("runtime.checkpoint_tuples_per_rec") +
      at("server.admit_ns") * at("server.admits_per_rec") +
      at("server.append_decode_ns_per_rec") * at("server.append_decode_recs_per_rec");
  L["ledger.modeled_ns_per_rec"] = modeled;
  L["ledger.e2e_ns_per_rec"] = 1e9 / ep.throughput;
  L["trace.overhead_pct"] = overhead_pct;
  L["trace.spans"] = static_cast<double>(tracer.spans().size());

  std::cout << "span self time (traced repetitions and passes):\n";
  for (const auto& s : tracer.summarize()) {
    std::cout << "  " << s.name << ": count=" << s.count
              << " total_s=" << fmt(s.total_s) << " self_s=" << fmt(s.self_s) << "\n";
  }
  const std::string trace_path = args.out_dir + "/trace-" + args.workload + "-" +
                                 std::to_string(args.seed) + ".json";
  if (tracer.write_chrome_json(trace_path)) {
    std::cout << "trace written to " << trace_path << "\n";
  }

  std::vector<Metric> metrics;
  for (const LayerSpec& spec : kLayerMetrics) {
    const auto it = L.find(spec.name);
    // A layer figure that could not be measured (absent, or a replay
    // whose own check failed) is a failed operation, not a number.
    ++totals.attempted;
    if (it == L.end() || it->second < 0.0) {
      if (std::strcmp(spec.name, "trace.overhead_pct") != 0 || it == L.end()) {
        ++totals.failed;
        std::cout << "FAIL layer metric " << spec.name << " not measured\n";
      }
    }
    metrics.push_back({spec.name, it == L.end() ? -1.0 : it->second, spec.unit});
  }
  print_result(totals, metrics);
  return 0;
}

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::cout << "self-test FAIL: " << what << "\n";
    }
  };
  auto rec = [](fastjoin::Side side, fastjoin::KeyId key, std::uint64_t ts) {
    Record r;
    r.side = side;
    r.key = key;
    r.ts = ts;
    return r;
  };
  using fastjoin::Side;
  // Key 1: 2 R x 3 S = 6; key 2: R only; key 3: 1 x 1.
  const std::vector<Record> small = {
      rec(Side::kR, 1, 0), rec(Side::kS, 1, 1), rec(Side::kS, 1, 2),
      rec(Side::kR, 2, 3), rec(Side::kR, 1, 4), rec(Side::kS, 1, 5),
      rec(Side::kS, 3, 6), rec(Side::kR, 3, 7)};
  expect(expected_matches(small) == 7, "sum_k r_k*s_k on a hand example");
  expect(expected_matches(std::vector<Record>{}) == 0, "empty input joins nothing");
  // Against a brute-force pair count on each workload's generator.
  for (const auto& trace : {zipf_trace(7, 3000), didi_trace(7, 3000),
                            stamp(uniform_client_records(7, 3000, 500))}) {
    std::uint64_t pairs = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      for (std::size_t j = i + 1; j < trace.size(); ++j) {
        pairs += trace[i].key == trace[j].key && trace[i].side != trace[j].side;
      }
    }
    expect(expected_matches(trace) == pairs, "reference equals brute-force pair count");
  }
  expect(zipf_trace(3, 100)[57].key == zipf_trace(3, 100)[57].key &&
             didi_trace(3, 100)[57].key == didi_trace(3, 100)[57].key,
         "same seed, same input");

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(std::fabs(quantile(v, 0.5) - 50.5) < 1e-9, "median of 1..100");
  expect(std::fabs(quantile(v, 0.99) - 99.01) < 1e-9, "p99 of 1..100");
  auto hp = highest_supported_percentile(v);
  expect(hp.pct == 90.0 && hp.samples == 100, "100 samples support p90, not p99");
  v.resize(1000);
  for (int i = 0; i < 1000; ++i) v[i] = i;
  hp = highest_supported_percentile(v);
  expect(hp.pct == 99.0 && hp.samples == 1000, "1000 samples support p99");
  v.resize(15);
  hp = highest_supported_percentile(v);
  expect(hp.pct == 0.0, "15 samples support no percentile of the ladder");
  v.resize(20);
  hp = highest_supported_percentile(v);
  expect(hp.pct == 50.0, "20 samples support the median");

  Tracer t(true);
  const auto root = t.add("root", 0.0, 10.0);
  t.add("child", 1.0, 3.0, root);
  t.add("child", 2.0, 4.0, root);  // overlaps the first child
  t.add("child", 9.0, 12.0, root);  // runs past the parent
  double root_self = -1.0;
  for (const auto& s : t.summarize()) {
    if (s.name == std::string("root")) root_self = s.self_s;
  }
  expect(std::fabs(root_self - 6.0) < 1e-9, "self time = span minus covered children");

  std::cout << (failures == 0 ? "self-test ok" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

int bench_main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return self_test();
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    for (const auto& m : kEndToEndMetrics) std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    for (const auto& m : kLayerMetrics) std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    return 0;
  }
  Args args;
  std::string err;
  Workload w{};
  if (!parse_args(argc, argv, &args, &err) || !parse_workload(args.workload, &w)) {
    std::cerr << "perfbench: " << (err.empty() ? "unknown workload '" + args.workload + "'" : err)
              << "\nusage: perfbench --workload <mp_hotkeys|serve_wide> "
                 "--seed N --seconds S --trace <0|1>\n";
    return 2;
  }
  for (const std::string& d : {args.run_dir, args.out_dir}) {
    for (std::size_t cut = d.find('/', 1);; cut = d.find('/', cut + 1)) {
      const std::string prefix = d.substr(0, cut);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        std::cerr << "perfbench: cannot create " << prefix << "\n";
        return 2;
      }
      if (cut == std::string::npos) break;
    }
  }
  std::cout << "{\"provenance\": {\"git_sha\": \"" << args.git_sha
            << "\", \"src_digest\": \"" << args.src_digest
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds
            << ", \"traced\": " << (args.trace ? "true" : "false") << "}}\n";
  const double g0 = now_s();
  const Inputs in = make_inputs(w, args.seed);
  std::cout << "inputs: records=" << in.records.size()
            << " reference_matches=" << in.expected
            << " generate_s=" << fmt(now_s() - g0) << "\n";
  PlaneOptions opt;
  opt.run_dir = args.run_dir;
  return args.trace ? run_traced(args, in, opt) : run_timed(args, in, opt);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The router re-executes this binary as its worker processes.
  const int rc = fastjoin::multiproc_worker_maybe_run(argc, argv);
  if (rc >= 0) return rc;
  return perfbench::bench_main(argc, argv);
}
