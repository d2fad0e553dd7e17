#pragma once

// Shared plumbing of the benchmark runner: the per-run report (samples per
// metric plus attempted/failed accounting), wall-clock timing, and the
// process memory high-water mark.
//
// The runner measures the library from outside: every number comes from
// timing calls into public functions or from the result structs they
// return. Nothing under src/ is instrumented or reconfigured, apart from
// the one documented toggle of the static gate around the traced
// sched::compile call (sim_workloads.cpp).

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string unit;
  std::vector<double> samples;  // the reported value is their median
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Every wrong output, rejected schedule or exception, in order.
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, Metric>> metrics;  // insertion order

  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, std::vector<double>{value});
  }
  void add(const std::string& name, const std::string& unit,
           std::vector<double> samples) {
    metrics.push_back({name, Metric{unit, std::move(samples)}});
  }
  /// A correctness problem outside the timed iterations (set-up, parity).
  void error(std::string what) { errors.push_back(std::move(what)); }
};

/// Runs `step` until `seconds` of wall time have passed, and at least 3
/// times. Every call is an attempted iteration. `step` returns its verdict:
/// empty on success, else what was wrong. A non-empty verdict or an
/// exception counts the iteration as failed and is recorded; failed
/// iterations are never retried or skipped. Returns the wall seconds of the
/// successful iterations, as timed by `step` itself through `*elapsed`.
std::vector<double> timed_loop(double seconds, Report& report,
                               const std::function<std::string(double*)>& step);

/// Times `reps` set-ups (construction plus warm-up); a set-up whose verdict
/// is non-empty or that throws is recorded as an error.
std::vector<double> time_setups(int reps, Report& report,
                                const std::function<std::string()>& setup);

/// Adds iter_s (the successful iterations' wall seconds), tokens_per_s
/// (tokens per timed second) and peak_rss_mb.
void report_end_to_end(Report& report, const std::vector<double>& iters,
                       double tokens_per_iter);

double median(std::vector<double> values);

void run_sim_large(const Options& options, Report& report);
void run_plan_grid(const Options& options, Report& report);
void run_train_threads(const Options& options, Report& report);

}  // namespace perfbench
