#include "measure.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

SupportedPercentile highest_supported_percentile(const std::vector<double>& v,
                                                 std::size_t min_beyond) {
  SupportedPercentile out;
  out.samples = v.size();
  for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the pct-th percentile of n samples.
    const double beyond =
        static_cast<double>(v.size()) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 < static_cast<double>(min_beyond)) break;
    out.pct = pct;
    out.value = quantile(v, pct / 100.0);
  }
  return out;
}

namespace {

std::uint64_t status_kb(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

/// utime + stime of a /proc/.../stat line, in seconds. The command
/// field may contain spaces, so fields are counted after its ')'.
double stat_cpu_s(const std::string& path) {
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const auto rp = all.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream rest(all.substr(rp + 2));
  std::string tok;
  // After ')': state(3) ppid pgrp session tty tpgid flags minflt
  // cminflt majflt cmajflt utime(14) stime(15).
  double ticks = 0.0;
  for (int field = 3; field <= 15 && rest >> tok; ++field) {
    if (field == 14 || field == 15) ticks += std::strtod(tok.c_str(), nullptr);
  }
  static const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return ticks / hz;
}

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

std::uint64_t vm_hwm_kb(pid_t pid) { return status_kb(pid, "VmHWM"); }
std::uint64_t vm_rss_kb(pid_t pid) { return status_kb(pid, "VmRSS"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double pid_cpu_s(pid_t pid) {
  return stat_cpu_s("/proc/" + std::to_string(pid) + "/stat");
}

std::vector<double> other_threads_cpu_s() {
  std::vector<double> out;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return out;
  const std::string self = std::to_string(::gettid());
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.' || self == e->d_name) continue;
    out.push_back(
        stat_cpu_s(std::string("/proc/self/task/") + e->d_name + "/stat"));
  }
  ::closedir(d);
  return out;
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint64_t request) {
  if (!enabled_) return 0;
  const double t = now_s();
  return add(name, t, t, parent, request);
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_s = now_s();
}

std::uint32_t Tracer::add(const char* name, double start_s, double end_s,
                          std::uint32_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, start_s, end_s, parent, request, thread_});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::absorb(Tracer&& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span& s : other.spans_) {
    if (s.parent != 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  other.spans_.clear();
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  }
  std::map<std::string, Summary, std::less<>> by_name;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (const std::uint32_t c : children[i]) {
      iv.emplace_back(std::max(s.start_s, spans_[c].start_s),
                      std::min(s.end_s, spans_[c].end_s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, reach = s.start_s;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    Summary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_s += s.end_s - s.start_s;
    sum.self_s += (s.end_s - s.start_s) - covered;
  }
  std::vector<Summary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %u, \"request\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6, i + 1,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
