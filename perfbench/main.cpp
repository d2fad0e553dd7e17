// Benchmark runner executable. perfbench/run.py builds and runs it; it can
// also be run directly:
//
//   slimpipe_perfbench --workload sim-large --seed 1 --seconds 10 --trace 0
//
// It prints one JSON object on stdout: the raw samples of every metric,
// attempted/failed iteration counts, every recorded error and the build
// fingerprint. run.py turns that into the report and the result line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

std::vector<double> timed_loop(double seconds, Report& report,
                               const std::function<std::string(double*)>& step) {
  constexpr int kMinIterations = 3;
  std::vector<double> ok;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMinIterations || seconds_since(start) < seconds; ++i) {
    ++report.attempted;
    double elapsed = 0.0;
    std::string verdict;
    try {
      verdict = step(&elapsed);
    } catch (const std::exception& e) {
      verdict = std::string("exception: ") + e.what();
    }
    if (verdict.empty()) {
      ok.push_back(elapsed);
    } else {
      ++report.failed;
      report.errors.push_back("iteration " + std::to_string(i) + ": " +
                              verdict);
    }
  }
  return ok;
}

std::vector<double> time_setups(int reps, Report& report,
                                const std::function<std::string()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    std::string verdict;
    try {
      verdict = setup();
    } catch (const std::exception& e) {
      verdict = std::string("exception: ") + e.what();
    }
    samples.push_back(seconds_since(start));
    if (!verdict.empty()) {
      report.error("set-up " + std::to_string(i) + ": " + verdict);
    }
  }
  return samples;
}

void report_end_to_end(Report& report, const std::vector<double>& iters,
                       double tokens_per_iter) {
  double total = 0.0;
  for (const double s : iters) total += s;
  report.add("iter_s", "s", iters);
  report.add("tokens_per_s", "1/s",
             total > 0.0 ? tokens_per_iter * iters.size() / total : 0.0);
  // The larger of this process's and its reaped children's high-water
  // marks; ru_maxrss is in KiB on Linux.
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  report.add("peak_rss_mb", "MiB",
             static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
                 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

void print_json_string(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    switch (c) {
      case '"': std::fputs("\\\"", stdout); break;
      case '\\': std::fputs("\\\\", stdout); break;
      case '\n': std::fputs("\\n", stdout); break;
      case '\t': std::fputs("\\t", stdout); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::printf("\\u%04x", c);
        } else {
          std::putchar(c);
        }
    }
  }
  std::putchar('"');
}

void print_number(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::fputs("null", stdout);
  }
}

void print_report(const Options& options, const Report& report) {
  std::fputs("{\"workload\": ", stdout);
  print_json_string(options.workload);
  std::printf(", \"seed\": %llu, \"seconds\": ",
              static_cast<unsigned long long>(options.seed));
  print_number(options.seconds);
  std::printf(", \"trace\": %d, \"compiler\": ", options.trace ? 1 : 0);
  print_json_string(__VERSION__);
  std::fputs(", \"build_type\": ", stdout);
  print_json_string(PERFBENCH_BUILD_TYPE);
  std::printf(", \"attempted\": %lld, \"failed\": %lld, \"errors\": [",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) std::fputs(", ", stdout);
    print_json_string(report.errors[i]);
  }
  std::fputs("], \"metrics\": {", stdout);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, metric] = report.metrics[i];
    if (i > 0) std::fputs(", ", stdout);
    print_json_string(name);
    std::fputs(": {\"unit\": ", stdout);
    print_json_string(metric.unit);
    std::fputs(", \"samples\": [", stdout);
    for (std::size_t k = 0; k < metric.samples.size(); ++k) {
      if (k > 0) std::fputs(", ", stdout);
      print_number(metric.samples[k]);
    }
    std::fputs("]}", stdout);
  }
  std::fputs("}}\n", stdout);
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: slimpipe_perfbench --workload "
               "sim-large|plan-grid|train-threads --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) return usage();

  static const std::map<std::string, void (*)(const Options&, Report&)>
      kWorkloads = {{"sim-large", run_sim_large},
                    {"plan-grid", run_plan_grid},
                    {"train-threads", run_train_threads}};
  const auto it = kWorkloads.find(options.workload);
  if (it == kWorkloads.end()) return usage();

  Report report;
  try {
    it->second(options, report);
  } catch (const std::exception& e) {
    report.error(std::string("workload aborted: ") + e.what());
  }

  print_report(options, report);
  return report.errors.empty() ? 0 : 1;
}
