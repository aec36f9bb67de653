#include "runtime/placement.hpp"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fastjoin {

Topology Topology::detect() {
  Topology t;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) t.cpu_ids.push_back(cpu);
    }
  }
#endif
  if (t.cpu_ids.empty()) {
    unsigned n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
    for (unsigned cpu = 0; cpu < n; ++cpu) {
      t.cpu_ids.push_back(static_cast<int>(cpu));
    }
  }
  return t;
}

SpinPolicy SpinPolicy::derive(const Topology& topo,
                              std::uint32_t engine_threads) {
  SpinPolicy p;
  p.oversubscribed = engine_threads > topo.cpus();
  if (p.oversubscribed) {
    // Every busy iteration runs INSTEAD of the peer we are waiting on;
    // park immediately and let the scheduler hand the core over.
    p.spin_iters = 0;
    p.yield_iters = 2;
  }
  return p;
}

}  // namespace fastjoin
