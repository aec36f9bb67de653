// Placement: CPU topology detection and the idle-spin discipline that
// follows from it.
//
// A SpinPolicy says how aggressively data-plane idle loops may burn
// cycles before blocking. It is derived from the ratio of engine
// threads to usable CPUs: on an oversubscribed box (the common CI
// shape: one core, dozens of threads) every spin iteration steals the
// quantum from the thread we are waiting ON, so the policy collapses
// spinning to zero and threads go straight to parking. The
// multi-producer regression this fixed was exactly that failure mode.
#pragma once

#include <cstdint>
#include <vector>

namespace fastjoin {

/// What the process is allowed to run on, as detected at startup.
struct Topology {
  /// CPUs in the process affinity mask (>= 1; falls back to
  /// hardware_concurrency, then 1).
  std::vector<int> cpu_ids;

  std::uint32_t cpus() const {
    return static_cast<std::uint32_t>(cpu_ids.size());
  }

  static Topology detect();
};

/// Idle-loop discipline handed to every Backoff in the data plane.
struct SpinPolicy {
  std::uint32_t spin_iters = 4;   ///< busy iterations before yielding
  std::uint32_t yield_iters = 20; ///< sched_yield rounds before parking
  bool oversubscribed = false;    ///< threads > usable CPUs

  /// Derive from the topology for an engine running `engine_threads`
  /// always-on threads (workers + monitor).
  static SpinPolicy derive(const Topology& topo,
                           std::uint32_t engine_threads);
};

}  // namespace fastjoin
