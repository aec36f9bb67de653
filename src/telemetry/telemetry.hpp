// Telemetry: always-on, overhead-bounded observability for the live
// runtime (and the simulated engine's exports).
//
// Three cooperating pieces, all reachable from this umbrella header:
//  * MetricRegistry (metrics.hpp) — named, sharded, cache-line-padded
//    lock-free counters/gauges and log2-bucketed concurrent histograms.
//    Hot-path updates are wait-free (one relaxed fetch_add on a
//    per-thread shard); the monitor thread periodically snapshots the
//    registry into per-metric TimeSeries.
//  * TraceLog (trace.hpp) — span-based tracing exported as
//    chrome://tracing / Perfetto-compatible JSON. Used for the
//    migration protocol (one span per phase), checkpoints, respawns,
//    and replay.
//  * FlightRecorder (flight_recorder.hpp) — a per-thread fixed-size
//    ring buffer of recent data/control-plane events, dumped on crash,
//    migration abort, or test failure so chaos regressions are
//    diagnosable from the artifact alone.
//
// Always compiled in: the live engine's monitor samples the registry
// every tick and perfbench's mp_hotkeys query is a registry scrape.
// The hot path stays cheap by the rules in
// docs/observability.md ("Overhead discipline"): per-batch counters,
// 1-in-64 latency sampling, and spans only for structural events.
#pragma once

#include "telemetry/clock.hpp"           // IWYU pragma: export
#include "telemetry/flight_recorder.hpp" // IWYU pragma: export
#include "telemetry/metrics.hpp"         // IWYU pragma: export
#include "telemetry/trace.hpp"           // IWYU pragma: export
