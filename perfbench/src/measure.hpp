// Measurement helpers of the repository benchmark: clocks, order
// statistics, process memory and CPU read from /proc, and an in-memory
// span recorder for the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// Value at quantile q in [0, 1] by linear interpolation between the
/// closest ranks (the "inclusive" method of Python's
/// statistics.quantiles). 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// has at least `min_beyond` samples above it, with its value and the
/// sample count. `pct` is 0 when even the median lacks support.
struct SupportedPercentile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
SupportedPercentile highest_supported_percentile(const std::vector<double>& v,
                                                 std::size_t min_beyond = 10);

/// Kernel memory figures of a process (kB from /proc/<pid>/status; 0
/// when unreadable). pid 0 means this process.
std::uint64_t vm_hwm_kb(pid_t pid = 0);
std::uint64_t vm_rss_kb(pid_t pid = 0);
/// Reset this process's peak-RSS mark to its current RSS
/// (/proc/self/clear_refs, "5"). False when the kernel refuses.
bool reset_peak_rss();

/// CPU seconds (user + system) of the calling thread, of the whole
/// process, of another process (/proc/<pid>/stat), and of every live
/// thread of this process except the caller (/proc/self/task/*/stat).
double thread_cpu_s();
double process_cpu_s();
double pid_cpu_s(pid_t pid);
std::vector<double> other_threads_cpu_s();

/// In-memory span recorder. Spans are recorded only while enabled;
/// begin() then returns 0 and end(0) is a no-op, so call sites need no
/// branch. Not thread-safe: one recorder per recording thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";         ///< string literal
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint32_t parent = 0;      ///< 0 = root
    std::uint64_t request = 0;     ///< groups the spans of one request
    std::uint32_t thread = 0;      ///< recorder id, for the trace file
  };

  explicit Tracer(bool enabled = false, std::uint32_t thread = 0)
      : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint64_t request = 0);
  void end(std::uint32_t id);
  /// Record a span whose bounds were taken elsewhere (e.g. a request
  /// whose start is its scheduled send time).
  std::uint32_t add(const char* name, double start_s, double end_s,
                    std::uint32_t parent = 0, std::uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Move another recorder's spans in, re-basing their ids and parents.
  void absorb(Tracer&& other);

  /// Per span name: count, total duration and self time (duration minus
  /// the part covered by child spans), in seconds.
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<Summary> summarize() const;

  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// Perfetto or chrome://tracing.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint32_t parent = 0,
             std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace perfbench
