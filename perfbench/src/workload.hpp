// Workload inputs of the repository benchmark, generated from the seed,
// and the reference match count the outputs are checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/record.hpp"
#include "server/protocol.hpp"

namespace perfbench {

using fastjoin::Record;

enum class Workload { kMpHotkeys, kServeWide };

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload* out);

/// Fixed shape of each workload. Sizes are per repetition: a run repeats
/// the same input on a fresh system until its time is spent.
struct Shape {
  std::uint64_t records = 0;   ///< warm-up prefix + timed records
  std::uint64_t warmup = 0;    ///< prefix pushed during set-up
  std::size_t batch = 0;       ///< records per push_batch / append
  double offered_rps = 0.0;    ///< serve_wide: open-loop rate
  std::uint64_t keyspace = 0;  ///< serve_wide: uniform key universe
};
Shape shape_of(Workload w);
/// The in-process plane on the DiDi trace (traced runs only; see
/// perfbench/README.md for why it is not a timed workload).
Shape didi_shape();

/// The paper's DiDi-calibrated ride-hailing trace (RideHailingGenerator
/// defaults, seeded): orders (R) : tracks (S) = 1 : 10 over 10,000 cells.
std::vector<Record> didi_trace(std::uint64_t seed, std::uint64_t n);
/// Zipf s = 1.1 over 400 keys, sides drawn 1:1 (the trace of the
/// repository's multiproc_throughput bench).
std::vector<Record> zipf_trace(std::uint64_t seed, std::uint64_t n);
/// Uniform keys over `keyspace`, sides drawn 1:1, as client records (the
/// router stamps seq and ts on admission).
std::vector<fastjoin::server::ClientRecord> uniform_client_records(
    std::uint64_t seed, std::uint64_t n, std::uint64_t keyspace);
/// The same client records as stamped Records, in append order (for the
/// replays and the reference count).
std::vector<Record> stamp(
    const std::vector<fastjoin::server::ClientRecord>& recs);

/// Reference output of a full-history equi-join: every equal-key (r, s)
/// pair joins exactly once, so the match total is sum_k r_k * s_k.
std::uint64_t expected_matches(const Record* recs, std::size_t n);
inline std::uint64_t expected_matches(const std::vector<Record>& recs) {
  return expected_matches(recs.data(), recs.size());
}

}  // namespace perfbench
