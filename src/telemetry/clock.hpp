// Shared telemetry base: the common timestamp epoch and dense thread
// identity used by metrics shards, trace tids, and flight-recorder
// rings. See telemetry.hpp for the subsystem overview.
#pragma once

#include <chrono>
#include <cstdint>

namespace fastjoin::telemetry {

/// Nanoseconds on the steady clock since the first call in this
/// process. All telemetry timestamps (metric samples, span times,
/// flight-recorder events) share this epoch so artifacts line up.
inline std::uint64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Small dense id for the calling thread (0, 1, 2, ... in first-use
/// order). Shards counters and keys flight-recorder rings / trace tids.
std::uint32_t thread_index();

/// Human label attached to the calling thread in flight-recorder dumps
/// and traces (e.g. "monitor", "worker-R3"). Keeps the first
/// kLabelBytes-1 characters.
void set_thread_label(const char* label);

}  // namespace fastjoin::telemetry
