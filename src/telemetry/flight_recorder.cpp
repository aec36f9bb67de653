#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_safety.hpp"
#include "telemetry/clock.hpp"

namespace fastjoin::telemetry {

const char* flight_event_name(FlightEvent ev) {
  switch (ev) {
    case FlightEvent::kNone: return "none";
    case FlightEvent::kBatchPushed: return "batch_pushed";
    case FlightEvent::kLaneBlocked: return "lane_blocked";
    case FlightEvent::kLaneClosedDrop: return "lane_closed_drop";
    case FlightEvent::kCtrlSelect: return "ctrl_select";
    case FlightEvent::kCtrlHold: return "ctrl_hold";
    case FlightEvent::kCtrlHoldAck: return "ctrl_hold_ack";
    case FlightEvent::kCtrlRoutePublish: return "ctrl_route_publish";
    case FlightEvent::kCtrlTakeForward: return "ctrl_take_forward";
    case FlightEvent::kCtrlAbsorb: return "ctrl_absorb";
    case FlightEvent::kCtrlRelease: return "ctrl_release";
    case FlightEvent::kCtrlAbort: return "ctrl_abort";
    case FlightEvent::kCtrlCheckpoint: return "ctrl_checkpoint";
    case FlightEvent::kCtrlWindow: return "ctrl_window";
    case FlightEvent::kCrash: return "crash";
    case FlightEvent::kRespawn: return "respawn";
    case FlightEvent::kReplay: return "replay";
    case FlightEvent::kMigrationStart: return "migration_start";
    case FlightEvent::kMigrationDone: return "migration_done";
    case FlightEvent::kMigrationAbort: return "migration_abort";
    case FlightEvent::kIngestAppend: return "ingest_append";
    case FlightEvent::kIngestBackpressure: return "ingest_backpressure";
    case FlightEvent::kIngestTruncate: return "ingest_truncate";
    case FlightEvent::kIngestReplayRead: return "ingest_replay_read";
    case FlightEvent::kServeReject: return "serve_reject";
    case FlightEvent::kServeShed: return "serve_shed";
  }
  return "?";
}

namespace {

constexpr std::size_t kLabelBytes = 32;

// FASTJOIN_HOT_PATH_BEGIN
// Slot / ThreadRing are written from the data plane (flight_record
// below): all-atomic fields, no locks, no allocation.

/// One slot in a ring. All-atomic so the dumper's cross-thread reads
/// are TSan-clean; relaxed everywhere because torn events are
/// acceptable in a diagnostic artifact.
struct Slot {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint16_t> code{0};
};

struct ThreadRing {
  Slot slots[kFlightRingCapacity];
  // The whole ring is single-writer (the owning thread); the dumper
  // reads cross-thread only at crash time, so these atomics are never
  // contended and padding each would bloat every per-thread ring.
  std::atomic<std::uint64_t> head{0};      ///< events ever recorded  // fastjoin-lint: allow(atomic-padding) single-writer ring
  std::atomic<bool> retired{false};
  std::atomic<std::uint64_t> retired_at{0};  // fastjoin-lint: allow(atomic-padding) single-writer ring
  std::uint32_t tid = 0;
  char label[kLabelBytes] = {};

  void reset_for(std::uint32_t new_tid) {
    head.store(0, std::memory_order_relaxed);
    retired.store(false, std::memory_order_relaxed);
    tid = new_tid;
    label[0] = '\0';
  }
};

// FASTJOIN_HOT_PATH_END

struct Recorder {
  Mutex mu;  // ring registration/recycling only
  std::vector<std::unique_ptr<ThreadRing>> rings GUARDED_BY(mu);
  std::atomic<std::uint64_t> total{0};

  ThreadRing* acquire(std::uint32_t tid) EXCLUDES(mu) {
    MutexLock lock(mu);
    if (rings.size() >= kFlightMaxRings) {
      // Recycle the least-recently-retired ring; a live set this large
      // means we are churning workers, and the oldest corpse is the
      // least diagnostic.
      ThreadRing* oldest = nullptr;
      for (auto& r : rings) {
        if (!r->retired.load(std::memory_order_relaxed)) continue;
        if (oldest == nullptr ||
            r->retired_at.load(std::memory_order_relaxed) <
                oldest->retired_at.load(std::memory_order_relaxed)) {
          oldest = r.get();
        }
      }
      if (oldest != nullptr) {
        oldest->reset_for(tid);
        return oldest;
      }
    }
    rings.push_back(std::make_unique<ThreadRing>());
    rings.back()->tid = tid;
    return rings.back().get();
  }
};

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: threads outlive main
  return *r;
}

/// Retires the thread's ring at thread exit so it becomes recyclable
/// while its contents stay dumpable.
struct TlsSlot {
  ThreadRing* ring = nullptr;
  ~TlsSlot() {
    if (ring != nullptr) {
      ring->retired_at.store(now_ns(), std::memory_order_relaxed);
      ring->retired.store(true, std::memory_order_release);
    }
  }
};

ThreadRing& thread_ring() {
  thread_local TlsSlot tls;
  if (tls.ring == nullptr) {
    tls.ring = recorder().acquire(thread_index());
  }
  return *tls.ring;
}

}  // namespace

void set_thread_label(const char* label) {
  ThreadRing& ring = thread_ring();
  std::strncpy(ring.label, label, kLabelBytes - 1);
  ring.label[kLabelBytes - 1] = '\0';
}

// FASTJOIN_HOT_PATH_BEGIN
// Per-batch record call on the data plane: relaxed stores into the
// caller's own ring, wait-free (ring acquisition above is once per
// thread, outside this region).
void flight_record(FlightEvent ev, std::uint64_t a, std::uint64_t b) {
  ThreadRing& ring = thread_ring();
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& s = ring.slots[h % kFlightRingCapacity];
  s.ns.store(now_ns(), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.code.store(static_cast<std::uint16_t>(ev),
               std::memory_order_relaxed);
  ring.head.store(h + 1, std::memory_order_release);
  recorder().total.fetch_add(1, std::memory_order_relaxed);
}
// FASTJOIN_HOT_PATH_END

std::uint64_t flight_recorded_total() {
  return recorder().total.load(std::memory_order_relaxed);
}

void flight_dump(std::ostream& os) {
  Recorder& rec = recorder();
  MutexLock lock(rec.mu);
  os << "=== flight recorder dump @ " << now_ns() << " ns ("
     << rec.rings.size() << " thread rings, "
     << rec.total.load(std::memory_order_relaxed)
     << " events recorded) ===\n";
  for (const auto& ring : rec.rings) {
    const std::uint64_t head =
        ring->head.load(std::memory_order_acquire);
    const std::uint64_t kept =
        std::min<std::uint64_t>(head, kFlightRingCapacity);
    os << "--- thread " << ring->tid;
    if (ring->label[0] != '\0') os << " [" << ring->label << "]";
    if (ring->retired.load(std::memory_order_relaxed)) os << " (exited)";
    os << ": " << head << " events, last " << kept << " kept ---\n";
    for (std::uint64_t i = head - kept; i < head; ++i) {
      const Slot& s = ring->slots[i % kFlightRingCapacity];
      const auto code = static_cast<FlightEvent>(
          s.code.load(std::memory_order_relaxed));
      if (code == FlightEvent::kNone) continue;
      os << "  " << s.ns.load(std::memory_order_relaxed) << "ns "
         << flight_event_name(code) << " a="
         << s.a.load(std::memory_order_relaxed) << " b="
         << s.b.load(std::memory_order_relaxed) << "\n";
    }
  }
  os << "=== end flight recorder dump ===\n";
}

bool flight_dump(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  flight_dump(f);
  return static_cast<bool>(f);
}

}  // namespace fastjoin::telemetry
