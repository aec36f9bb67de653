// Perf — multi-process plane throughput vs the in-process laned plane.
//
// The multi-process plane buys crash isolation (workers are real
// processes; SIGKILL is survivable via StreamLog replay) and pays for
// it in syscalls: every record becomes one or two framed socket writes,
// and every match comes back over the same wire. This bench quantifies
// that tax. For W in {1, 2, 4, 8} it runs the same single-feed trace
// through
//   inproc:    LiveEngine, W instances, laned data plane — the tier-1
//              baseline the multi-process plane must match byte-for-byte
//              (tests/runtime/multiproc_test.cpp proves the byte
//              equality; here only counts travel, collect_matches=false,
//              so the wire carries the join, not the bench harness).
//              One registered producer pushes kPushBatch-record batches
//              (register_producer() + push_batch(): its private SPSC
//              lanes, not the shared fallback lane of per-record push()).
//   multiproc: MultiprocRouter + W forked workers over unix sockets,
//              periodic checkpoint rounds included — the configuration
//              the chaos tests run, not a stripped-down fast path.
// Both sides must report the same match count or the bench fails: a
// throughput number for a plane that lost records is not a number.
//
// Target: multiproc >= 0.5x inproc at 4 workers. The ratio is recorded
// in the JSON either way — if the tax is worse than 2x on some host, the
// honest number is the useful one. The default feed is long enough that
// per-run fixed costs (engine and worker shutdown, the finish handshake)
// stay small beside each cell's wall time, and the JSON records the core
// count the ratios were measured on.
//
// Usage: multiproc_throughput [scale=1.0] [records=600000]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "datagen/keygen.hpp"
#include "runtime/live_engine.hpp"
#include "runtime/multiproc.hpp"
#include "runtime/placement.hpp"
#include "support/harness.hpp"
#include "support/workloads.hpp"

namespace fastjoin::bench {
namespace {

/// Records per push_batch() call on the in-process leg.
constexpr std::size_t kPushBatch = 256;

std::vector<Record> make_trace(std::uint64_t seed, std::uint64_t total,
                               int num_keys, double zipf) {
  KeyStreamSpec spec;
  spec.num_keys = num_keys;
  spec.zipf_s = zipf;
  spec.seed = seed;
  KeyGenerator gen(spec);
  Xoshiro256 rng(seed ^ 0xbeef);
  std::vector<Record> out;
  out.reserve(total);
  std::uint64_t r_seq = 0, s_seq = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    Record rec;
    rec.side = rng.next_below(2) ? Side::kS : Side::kR;
    rec.key = gen();
    rec.seq = rec.side == Side::kR ? r_seq++ : s_seq++;
    rec.ts = i;
    rec.payload = i;
    out.push_back(rec);
  }
  return out;
}

struct RunResult {
  double rps = 0.0;
  double wall_s = 0.0;
  std::uint64_t matches = 0;
  std::uint64_t checkpoints = 0;  ///< multiproc only
};

RunResult run_inproc(std::uint32_t instances,
                     const std::vector<Record>& trace) {
  LiveConfig cfg;
  cfg.instances = instances;
  cfg.balancer = false;
  LiveEngine engine(cfg);
  engine.start();
  const int producer = engine.register_producer();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < trace.size(); i += kPushBatch) {
    engine.push_batch(trace.data() + i,
                      std::min(kPushBatch, trace.size() - i), producer);
  }
  const auto stats = engine.finish();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  RunResult r;
  r.wall_s = wall;
  r.rps = static_cast<double>(trace.size()) / wall;
  r.matches = stats.results;
  return r;
}

RunResult run_multiproc(std::uint32_t workers,
                        const std::vector<Record>& trace) {
  MultiprocConfig cfg;
  cfg.workers = workers;
  cfg.worker_command = {"/proc/self/exe"};
  cfg.collect_matches = false;  // counts only: measure the join, not
                                // the result-shipping harness
  cfg.checkpoint_every = 5'000;
  MultiprocRouter router(std::move(cfg));
  std::string err;
  if (!router.start(&err)) {
    std::cerr << "multiproc start failed: " << err << "\n";
    std::exit(2);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& rec : trace) router.publish(rec);
  if (!router.finish()) {
    std::cerr << "multiproc finish failed\n";
    std::exit(2);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& st = router.stats();
  if (st.records_dropped != 0) {
    std::cerr << "multiproc dropped " << st.records_dropped
              << " records on a clean run\n";
    std::exit(2);
  }
  RunResult r;
  r.wall_s = wall;
  r.rps = static_cast<double>(trace.size()) / wall;
  r.matches = st.matches_total;
  r.checkpoints = st.checkpoints_completed;
  return r;
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const double scale = cli_scale(cli);
  const auto total = static_cast<std::uint64_t>(
      cli.get_int("records", 600'000) * scale);

  banner("Perf",
         "multi-process plane (sockets + fork/exec) vs in-process lanes");
  const std::size_t cores =
      std::max<std::size_t>(1, Topology::detect().cpus());
  std::cout << "records/run=" << total << "  cores=" << cores
            << "  (override with records=N scale=X)\n\n";

  const auto trace = make_trace(41, total, 400, 1.1);

  const std::uint32_t kWorkers[] = {1, 2, 4, 8};
  Table t({"workers", "inproc rec/s", "multiproc rec/s", "ratio",
           "matches", "checkpoints"});
  std::ostringstream cells;
  bool first = true;
  bool counts_agree = true;
  double ratio_at_4 = 0.0;

  for (const auto w : kWorkers) {
    const auto inproc = run_inproc(w, trace);
    const auto mp = run_multiproc(w, trace);
    // Fixed cost of a cell: the same timed window over an empty feed.
    const double inproc_fixed_s = run_inproc(w, {}).wall_s;
    const double mp_fixed_s = run_multiproc(w, {}).wall_s;
    for (const auto& [plane, fixed_s, wall_s] :
         {std::tuple{"inproc", inproc_fixed_s, inproc.wall_s},
          std::tuple{"multiproc", mp_fixed_s, mp.wall_s}}) {
      if (fixed_s > 0.05 * wall_s) {
        std::cout << "note: " << plane << " fixed cost " << fixed_s * 1e3
                  << " ms is over 5% of its " << wall_s * 1e3
                  << " ms cell at " << w << " workers\n";
      }
    }
    if (inproc.matches != mp.matches) {
      counts_agree = false;
      std::cerr << "MATCH COUNT MISMATCH @ " << w
                << " workers: inproc=" << inproc.matches
                << " multiproc=" << mp.matches << "\n";
    }
    const double ratio = mp.rps / inproc.rps;
    if (w == 4) ratio_at_4 = ratio;
    t.add_row({static_cast<std::int64_t>(w), inproc.rps, mp.rps, ratio,
               static_cast<std::int64_t>(mp.matches),
               static_cast<std::int64_t>(mp.checkpoints)});
    if (!first) cells << ",\n";
    first = false;
    cells << "    {\"workers\": " << w
          << ", \"inproc_records_per_sec\": "
          << static_cast<std::uint64_t>(inproc.rps)
          << ", \"multiproc_records_per_sec\": "
          << static_cast<std::uint64_t>(mp.rps)
          << ", \"ratio\": " << ratio
          << ", \"inproc_wall_s\": " << inproc.wall_s
          << ", \"multiproc_wall_s\": " << mp.wall_s
          << ", \"inproc_fixed_ms\": " << inproc_fixed_s * 1e3
          << ", \"multiproc_fixed_ms\": " << mp_fixed_s * 1e3
          << ", \"matches\": " << mp.matches
          << ", \"checkpoints_completed\": " << mp.checkpoints << "}";
  }
  t.print(std::cout);
  std::cout << "\nacceptance: multiproc/inproc ratio @ 4 workers = "
            << ratio_at_4 << "x (target >= 0.5x), match counts "
            << (counts_agree ? "identical" : "MISMATCH") << "\n";

  std::ostringstream workload;
  workload << "records=" << total
           << " workers={1,2,4,8} keys=400 zipf=1.1 checkpoint_every=5000";
  const std::string meta = json_meta(workload.str());
  std::ofstream json("BENCH_multiproc_throughput.json");
  json << "{\n  \"bench\": \"multiproc_throughput\",\n  "
       << meta << ",\n"
       << "  \"records_per_run\": " << total << ",\n"
       << "  \"cores\": " << cores << ",\n"
       << "  \"match_counts_identical\": "
       << (counts_agree ? "true" : "false") << ",\n"
       << "  \"ratio_4_workers\": " << ratio_at_4
       << ",\n  \"target_ratio\": 0.5,\n  \"cells\": [\n"
       << cells.str() << "\n  ]\n}\n";
  std::cout << "wrote BENCH_multiproc_throughput.json\n";
  // Correctness gates the exit code; the ratio is reported, not
  // enforced — a slower host must not turn an honest number red.
  return counts_agree ? 0 : 1;
}

}  // namespace
}  // namespace fastjoin::bench

int main(int argc, char** argv) {
  // Worker re-entry: the router execs this same binary with
  // --multiproc-worker; hand those straight to the worker loop.
  const int rc = fastjoin::multiproc_worker_maybe_run(argc, argv);
  if (rc >= 0) return rc;
  return fastjoin::bench::run(argc, argv);
}
