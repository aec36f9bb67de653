// The three planes under test, each run through its public API:
// LiveEngine (in-process lanes), MultiprocRouter (forked workers) and
// the router's serving front door (one client connection).
//
// One call is one repetition on a fresh system: construct, start, push
// the warm-up prefix (set-up), push the rest (timed), finish, check.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workload.hpp"

namespace perfbench {

/// Per-layer figures, by metric name.
using Layers = std::map<std::string, double>;

struct RepResult {
  double setup_s = 0.0;
  double throughput_rps = 0.0;
  double rss_peak_mb = 0.0;
  /// Request latencies of this repetition, microseconds: ingest requests
  /// (one push_batch call / one ack unit of publish() calls / kAppend)
  /// and state reads (registry scrape / kQuery).
  std::vector<double> ack_us;
  std::vector<double> query_us;
  /// serve_wide: how late the open-loop generator sent, microseconds.
  std::vector<double> late_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  Layers layers;                    ///< traced repetitions only
};

struct PlaneOptions {
  bool balancer = false;      ///< LiveEngine only
  Tracer* tracer = nullptr;   ///< non-null: record spans + layer figures
  std::string run_dir;        ///< where unix sockets are created
  std::uint64_t rep_id = 0;   ///< makes socket paths unique
};

/// LiveEngine, 2 instances per side, counts only, one registered
/// producer pushing `shape.batch`-record batches in a closed loop.
/// Traced runs only: it has no state read, so query_us stays empty.
RepResult run_inproc(const std::vector<Record>& trace, const Shape& shape,
                     std::uint64_t expected, const PlaneOptions& opt);

/// MultiprocRouter with 2 forked workers over a unix socket, counts
/// only, a checkpoint round every 20,000 records; one thread publishes
/// in a closed loop and times each 16 publishes as one ack sample.
RepResult run_multiproc(const std::vector<Record>& trace, const Shape& shape,
                        std::uint64_t expected, const PlaneOptions& opt);

/// The same router with the serving front door: one tenant connection
/// sends `shape.batch`-record appends at `shape.offered_rps` on a fixed
/// schedule, each followed by a per-key query; the calling thread pumps
/// the router.
RepResult run_serve(const std::vector<fastjoin::server::ClientRecord>& recs,
                    const Shape& shape, std::uint64_t expected,
                    const PlaneOptions& opt);

/// Checkpoint cadence of both router workloads (the fastjoin_router
/// default).
inline constexpr std::uint64_t kCheckpointEvery = 20'000;
inline constexpr std::uint32_t kWorkers = 2;

}  // namespace perfbench
