#include "support/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

// Injected by bench/CMakeLists.txt; fall back gracefully when the
// bench sources are compiled outside that scope.
#ifndef FASTJOIN_GIT_SHA
#define FASTJOIN_GIT_SHA "unknown"
#endif
#ifndef FASTJOIN_BUILD_TYPE
#define FASTJOIN_BUILD_TYPE "unspecified"
#endif
#ifndef FASTJOIN_SOURCE_DIR
#define FASTJOIN_SOURCE_DIR "."
#endif

namespace fastjoin::bench {

void banner(const std::string& figure, const std::string& description) {
  std::cout << "\n=== " << figure << " — " << description << " ===\n";
}

void print_series(const std::string& title,
                  const std::vector<std::string>& names,
                  const std::vector<TimeSeries>& series, SimTime start,
                  SimTime step, SimTime end) {
  std::cout << "\n-- " << title << " --\n";
  std::vector<std::string> headers{"t(s)"};
  headers.insert(headers.end(), names.begin(), names.end());
  Table table(headers);

  std::vector<std::vector<TimePoint>> resampled;
  std::size_t rows = 0;
  for (const auto& s : series) {
    resampled.push_back(s.resample(start, step));
    rows = std::max(rows, resampled.back().size());
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const SimTime t = start + static_cast<SimTime>(i) * step;
    if (end > 0 && t > end) break;
    std::vector<Cell> row;
    row.emplace_back(to_seconds(t));
    for (const auto& r : resampled) {
      row.emplace_back(i < r.size() ? r[i].v
                                    : (r.empty() ? 0.0 : r.back().v));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

void print_summary(const std::vector<std::string>& names,
                   const std::vector<RunReport>& reports) {
  Table table({"system", "throughput(res/s)", "latency(ms)", "p99(ms)",
               "mean LI", "migrations", "tuples moved", "results"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    table.add_row({names[i], r.mean_throughput, r.mean_latency_ms,
                   r.p99_latency_ms, r.mean_li,
                   static_cast<std::int64_t>(r.migrations),
                   static_cast<std::int64_t>(r.tuples_migrated),
                   static_cast<std::int64_t>(r.results)});
  }
  table.print(std::cout);
}

double improvement_pct(double a, double b) {
  return b != 0.0 ? (a - b) / b * 100.0 : 0.0;
}

namespace {

/// stdout of `cmd`, trailing whitespace trimmed; empty on any failure
/// (no git, not a repo, ...). Provenance degrades gracefully to the
/// compiled-in stamp in that case — it only *fails* when git answers
/// and the answer contradicts the stamp.
std::string capture(const char* cmd) {
#if defined(_WIN32)
  (void)cmd;
  return {};
#else
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  if (::pclose(pipe) != 0) return {};
  while (!out.empty() &&
         (out.back() == '\n' || out.back() == '\r' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
#endif
}

/// `git -C <source dir> <args>`: the provenance checks judge the tree
/// the binary was built from, wherever the bench runs.
std::string git(const std::string& args) {
  const std::string cmd =
      "git -C '" FASTJOIN_SOURCE_DIR "' " + args + " 2>/dev/null";
  return capture(cmd.c_str());
}

/// `git status --porcelain` paths that are NOT bench result files.
/// BENCH_*.json are exempt because regenerating them is exactly what a
/// bench run does — a tree that is dirty only with fresh results is
/// still attributable to HEAD.
std::vector<std::string> dirty_paths() {
  const std::string status = git("status --porcelain");
  std::vector<std::string> out;
  std::istringstream lines(status);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() < 4) continue;
    std::string path = line.substr(3);
    const auto arrow = path.find(" -> ");  // renames: judge the target
    if (arrow != std::string::npos) path = path.substr(arrow + 4);
    const auto slash = path.rfind('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const bool bench_json =
        base.rfind("BENCH_", 0) == 0 && base.size() > 5 &&
        base.compare(base.size() - 5, 5, ".json") == 0;
    if (!bench_json) out.push_back(path);
  }
  return out;
}

}  // namespace

std::string json_meta(const std::string& workload) {
  std::string sha = FASTJOIN_GIT_SHA;
  const bool allow_dirty = std::getenv("FASTJOIN_ALLOW_DIRTY") != nullptr;
  const std::string head = git("rev-parse --short HEAD");
  if (!head.empty()) {
    const auto dirty = dirty_paths();
    if (!dirty.empty() || head != sha) {
      if (!allow_dirty) {
        std::cerr << "\nPROVENANCE ERROR: refusing to stamp BENCH json\n";
        if (head != sha) {
          std::cerr << "  HEAD is " << head << " but the binary was "
                    << "configured at " << sha
                    << " — re-run cmake and rebuild so the stamp "
                    << "matches the code.\n";
        }
        for (const auto& p : dirty) {
          std::cerr << "  dirty: " << p << "\n";
        }
        std::cerr << "  (set FASTJOIN_ALLOW_DIRTY=1 to override; the "
                  << "stamp is then marked +dirty)\n";
        std::exit(2);
      }
      sha = head + "+dirty";
    } else {
      sha = head;
    }
  }
  std::ostringstream os;
  os << "\"meta\": {\"git_sha\": \"" << sha
     << "\", \"build_type\": \"" << FASTJOIN_BUILD_TYPE
     << "\", \"workload\": \"" << workload << "\"}";
  return os.str();
}

}  // namespace fastjoin::bench
