// Deterministic discrete-event simulator.
//
// The cluster substrate for every experiment: each JoinInstance is its
// own single-server station, the engine schedules dispatch and transfer
// delays itself, and everything executes in virtual time on this event
// queue. Events at equal timestamps run in scheduling order, so a run is
// a pure function of its seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace fastjoin {

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Token for cancelling a scheduled event.
  struct Handle {
    std::uint64_t id = 0;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  Handle schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` `delay` after now().
  Handle schedule_after(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. No-op if it already ran or was cancelled.
  void cancel(Handle h) { cancelled_.insert(h.id); }

  /// Execute the next event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue drains or virtual time would pass `until`.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  bool empty() const { return queue_.size() == cancelled_.size(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break at equal times
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace fastjoin
