// Output helpers for the figure benches: consistent headers, the
// paper-vs-measured framing, and time-series rendering.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/timeseries.hpp"
#include "engine/engine.hpp"

namespace fastjoin::bench {

/// Print the standard bench banner (figure id + description + knobs).
void banner(const std::string& figure, const std::string& description);

/// Render several time series side by side, resampled on a common grid:
/// one row per time step, one column per series. Rows after `end` are
/// dropped (0 = keep everything) — used to cut the post-feed drain tail.
void print_series(const std::string& title,
                  const std::vector<std::string>& names,
                  const std::vector<TimeSeries>& series, SimTime start,
                  SimTime step, SimTime end = 0);

/// One summary row per system: throughput / latency / LI / migrations.
void print_summary(const std::vector<std::string>& names,
                   const std::vector<RunReport>& reports);

/// Relative improvement in percent: (a - b) / b * 100.
double improvement_pct(double a, double b);

/// Provenance stamp for BENCH_*.json files — a `"meta": {...}` JSON
/// fragment carrying the emitting git SHA, the CMake build type, and
/// the workload knobs, so number trajectories across PRs are
/// attributable to a commit and configuration.
///
/// Fails loudly (exit 2) when the stamp would lie: the working tree is
/// dirty beyond BENCH_*.json files themselves, or HEAD no longer
/// matches the SHA baked in at CMake configure time (stale build). Set
/// FASTJOIN_ALLOW_DIRTY=1 to override during development; the stamp is
/// then suffixed "+dirty" so the JSON cannot masquerade as clean.
/// Call it before opening the output file: a refused run must leave an
/// existing BENCH_*.json as it was, not truncated.
std::string json_meta(const std::string& workload);

}  // namespace fastjoin::bench
