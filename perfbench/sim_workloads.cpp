// Simulator workloads: sim-large (one large SlimPipe iteration through
// core::run_scheme) and plan-grid (a sweep of parallel::grid_search calls).
//
// Neither input depends on --seed: the simulator is deterministic and both
// workloads are fixed model/cluster points, so every output is compared
// against pinned values exactly.
//
// The traced run splits each simulated iteration into the calls
// run_scheme makes, one layer at a time (decompose below), and checks that
// the pieces reassemble run_scheme's result bit for bit.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/analysis/findings.hpp"
#include "src/analysis/graph_check.hpp"
#include "src/analysis/schedule_check.hpp"
#include "src/analysis/verify.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/memory/tracker.hpp"
#include "src/model/flops.hpp"
#include "src/obs/metrics.hpp"
#include "src/parallel/search.hpp"
#include "src/sched/builder.hpp"
#include "src/sim/executor.hpp"

namespace perfbench {
namespace {

using namespace slim;

std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// sim-large

/// Llama 70B, t=8, 1M-token sequences, p=32 n=32 m=64, full checkpointing,
/// vocabulary parallelism and context exchange (38.8 GB simulated peak).
sched::PipelineSpec sim_large_spec() {
  sched::PipelineSpec spec;
  spec.cfg = model::llama70b();
  spec.gpu = model::hopper80();
  spec.shard = model::Shard{8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::Full;
  spec.p = 32;
  spec.n = 32;
  spec.m = 64;
  spec.seq = std::int64_t{1} << 20;
  spec.vocab_parallel = true;
  spec.context_exchange = true;
  spec.offload.pcie_bandwidth = spec.gpu.pcie_bandwidth;
  return spec;
}

// Pinned sim-large outputs (exact: the simulator is deterministic).
constexpr double kSimLargeMakespan = 3802.9715542357885;
constexpr double kSimLargeMfu = 0.31644095829405944;
constexpr double kSimLargePeakBytes = 38745845760.0;

std::string check_sim_large(const sched::ScheduleResult& r) {
  if (r.iteration_time == kSimLargeMakespan && r.mfu == kSimLargeMfu &&
      r.peak_memory == kSimLargePeakBytes && !r.oom) {
    return {};
  }
  return "sim-large result differs from the pinned values: makespan " +
         fmt(r.iteration_time) + " mfu " + fmt(r.mfu) + " peak " +
         fmt(r.peak_memory) + (r.oom ? " (oom)" : "");
}

// ---------------------------------------------------------------------------
// Traced decomposition of one simulated iteration.

/// Wall seconds of each layer run_scheme passes through, in call order.
struct Phases {
  double plan = 0.0;         // core::plan_scheme + the exchange planner
  double schedule_lint = 0.0;
  double lower = 0.0;
  double verify = 0.0;
  double build = 0.0;        // sched::compile with the static gate off
  double graph_check = 0.0;
  double execute = 0.0;
  double replay = 0.0;
  double metrics = 0.0;
  double ops = 0.0;
  double errors = 0.0;

  double total() const {
    return plan + schedule_lint + lower + verify + build + graph_check +
           execute + replay + metrics;
  }
  void add(const Phases& o) {
    plan += o.plan;
    schedule_lint += o.schedule_lint;
    lower += o.lower;
    verify += o.verify;
    build += o.build;
    graph_check += o.graph_check;
    execute += o.execute;
    replay += o.replay;
    metrics += o.metrics;
    ops += o.ops;
    errors += o.errors;
  }
};

/// Turns the compile-time static gate off for one scope: the traced run
/// times the gate's passes separately, so the build itself runs without
/// them. The previous setting is restored on exit.
class GateOff {
 public:
  GateOff() : was_(sched::compile_lint_enabled()) {
    sched::set_compile_lint(false);
  }
  ~GateOff() { sched::set_compile_lint(was_); }
  GateOff(const GateOff&) = delete;
  GateOff& operator=(const GateOff&) = delete;

 private:
  bool was_;
};

std::string compare_metrics(const obs::RunMetrics& a,
                            const obs::RunMetrics& b) {
  if (a.makespan != b.makespan || a.stages.size() != b.stages.size()) {
    return "run metrics shape/makespan";
  }
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const obs::StageMetrics& x = a.stages[i];
    const obs::StageMetrics& y = b.stages[i];
    if (x.compute_seconds != y.compute_seconds ||
        x.comm_seconds != y.comm_seconds ||
        x.idle_seconds != y.idle_seconds ||
        x.bubble_fraction != y.bubble_fraction ||
        x.peak_live_slices != y.peak_live_slices ||
        x.p2p_messages != y.p2p_messages || x.p2p_bytes != y.p2p_bytes ||
        x.exchange_bytes != y.exchange_bytes ||
        x.peak_memory_bytes != y.peak_memory_bytes) {
      return "stage " + std::to_string(i) + " metrics";
    }
  }
  return {};
}

/// Runs the calls core::run_scheme makes, timing each layer, and compares
/// the reassembled result with `expected` (run_scheme's own result for the
/// same inputs). Returns the mismatch, empty when bit-identical.
std::string decompose(core::Scheme scheme, const sched::PipelineSpec& spec,
                      const sched::ScheduleResult& expected, Phases* out) {
  Phases t;
  Clock::time_point start = Clock::now();
  auto lap = [&start](double* slot) {
    const Clock::time_point now = Clock::now();
    *slot = std::chrono::duration<double>(now - start).count();
    start = now;
  };

  if (scheme == core::Scheme::Interleaved1F1B && spec.v == 1) {
    scheme = core::Scheme::OneF1B;  // run_scheme's own delegation
  }
  const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
  std::unique_ptr<core::ExchangePlanner> planner;
  if (plan.spec.context_exchange && plan.spec.p > 1) {
    planner = std::make_unique<core::ExchangePlanner>(plan.spec);
  }
  lap(&t.plan);

  // The gate's findings are dropped before the build, as in sched::compile.
  {
    analysis::ScheduleLintOptions lint_options;
    lint_options.max_inflight_units = plan.spec.max_inflight_units;
    const std::vector<analysis::Finding> lint =
        analysis::check_schedule(plan.spec, plan.programs, lint_options);
    lap(&t.schedule_lint);
    const ir::ScheduleIR table =
        ir::lower(plan.spec, plan.programs, "compile");
    lap(&t.lower);
    const analysis::VerifyResult verdict =
        analysis::verify_ir(table, plan.spec);
    lap(&t.verify);
    t.errors = static_cast<double>(
        analysis::count(lint, analysis::Severity::Error) +
        analysis::count(verdict.findings, analysis::Severity::Error));
  }
  sched::BuildOutput built;
  {
    GateOff gate_off;
    built = sched::compile(plan.spec, plan.programs, planner.get());
  }
  lap(&t.build);
  const std::vector<analysis::Finding> graph_findings =
      analysis::check_graph(*built.graph, plan.spec);
  lap(&t.graph_check);
  const sim::ExecResult exec = sim::execute(*built.graph);
  lap(&t.execute);
  const mem::MemoryReport memory = mem::replay_memory(
      *built.graph, exec, plan.spec.p, built.baseline);
  lap(&t.replay);
  const obs::RunMetrics metrics =
      obs::metrics_from_sim(*built.graph, exec, plan.spec.p, &memory);
  lap(&t.metrics);

  t.ops = static_cast<double>(built.graph->ops().size());
  t.errors += static_cast<double>(
      analysis::count(graph_findings, analysis::Severity::Error));
  *out = t;

  // Reassemble the headline fields exactly as sched::run_pipeline does.
  const sched::PipelineSpec& s = plan.spec;
  const model::CostModel cost(s.cfg, s.gpu, sched::pipeline_topology(s),
                              s.shard, s.policy, s.cp_mode);
  double model_flops = 0.0;
  for (int mb = 0; mb < s.m; ++mb) {
    model_flops += 3.0 * cost.model_flops_forward(s.seq_of(mb));
  }
  const double gpus = static_cast<double>(s.shard.t * s.shard.c) *
                      static_cast<double>(s.p);
  const double mfu = model_flops / (exec.makespan * gpus * s.gpu.peak_flops);
  std::vector<double> device_peaks;
  for (const mem::DeviceMemory& dev : memory.devices) {
    device_peaks.push_back(dev.peak);
  }
  if (t.errors != 0.0) return "static gate found errors the run did not";
  if (exec.makespan != expected.iteration_time) return "makespan";
  if (exec.mean_bubble_fraction(s.p) != expected.bubble_fraction) {
    return "bubble fraction";
  }
  if (mfu != expected.mfu) return "mfu";
  if (memory.max_peak() != expected.peak_memory ||
      device_peaks != expected.device_peaks) {
    return "memory peaks";
  }
  const std::string metrics_diff = compare_metrics(metrics, expected.metrics);
  if (!metrics_diff.empty()) return metrics_diff;
  return {};
}

void report_phases(Report& report, const std::vector<Phases>& samples,
                   const std::vector<double>& unattributed) {
  auto column = [&](double Phases::*field) {
    std::vector<double> values;
    for (const Phases& p : samples) values.push_back(p.*field);
    return values;
  };
  report.add("core.plan_s", "s", column(&Phases::plan));
  report.add("analysis.schedule_lint_s", "s", column(&Phases::schedule_lint));
  report.add("ir.lower_s", "s", column(&Phases::lower));
  report.add("analysis.verify_s", "s", column(&Phases::verify));
  report.add("sched.build_s", "s", column(&Phases::build));
  report.add("analysis.graph_check_s", "s", column(&Phases::graph_check));
  report.add("sim.execute_s", "s", column(&Phases::execute));
  report.add("memory.replay_s", "s", column(&Phases::replay));
  report.add("obs.metrics_s", "s", column(&Phases::metrics));
  report.add("sched.unattributed_s", "s", unattributed);
  report.add("sim.ops", "count", column(&Phases::ops));
  report.add("analysis.errors", "count", column(&Phases::errors));
}

// ---------------------------------------------------------------------------
// plan-grid

struct Search {
  const char* model;
  int gpus;
  std::int64_t seq;
  core::Scheme scheme;
};

constexpr std::int64_t kK = 1024;
constexpr std::int64_t kPlanTokens = 4 * kK * kK;  // tokens per iteration

std::vector<Search> plan_grid_searches() {
  struct Point {
    const char* model;
    int gpus;
    std::int64_t seq;
  };
  const Point points[] = {{"70b", 128, 256 * kK},
                          {"70b", 128, 512 * kK},
                          {"70b", 256, 1024 * kK},
                          {"13b", 64, 512 * kK},
                          {"8x7b", 128, 512 * kK}};
  const core::Scheme schemes[] = {core::Scheme::OneF1B,
                                  core::Scheme::Interleaved1F1B,
                                  core::Scheme::ZBV, core::Scheme::SlimPipe};
  std::vector<Search> searches;
  for (const Point& point : points) {
    for (const core::Scheme scheme : schemes) {
      searches.push_back({point.model, point.gpus, point.seq, scheme});
    }
  }
  return searches;
}

model::TransformerConfig model_of(const std::string& name) {
  if (name == "70b") return model::llama70b();
  if (name == "13b") return model::llama13b();
  return model::mixtral8x7b();
}

parallel::SearchResult run_search(const Search& search,
                                  const parallel::SearchOptions& options) {
  return parallel::grid_search(model_of(search.model), model::hopper80(),
                               search.gpus, search.seq, kPlanTokens,
                               search.scheme, options);
}

/// Pinned winner of each search, in plan_grid_searches() order.
struct Pin {
  const char* config;
  double mfu;
};
const Pin kPlanPins[] = {
    // 70B on 128 GPUs at 256K
    {"1F1B t=8 c=1 d=2 p=8 ckpt=full", 0.19940370784786485},
    {"Interleaved 1F1B t=8 c=1 d=2 p=8 v=10 ckpt=full", 0.33705559372276456},
    {"out of memory", 0.0},
    {"SlimPipe t=4 c=2 d=1 p=16 v=5 n=16 ckpt=none", 0.47083995023917208},
    // 70B on 128 GPUs at 512K
    {"out of memory", 0.0},
    {"out of memory", 0.0},
    {"out of memory", 0.0},
    {"SlimPipe t=4 c=2 d=2 p=8 v=10 n=16 ckpt=selective", 0.43818202354248686},
    // 70B on 256 GPUs at 1M
    {"out of memory", 0.0},
    {"out of memory", 0.0},
    {"out of memory", 0.0},
    {"SlimPipe t=8 c=1 d=2 p=16 v=5 n=128 ckpt=selective", 0.43454966805902784},
    // 13B on 64 GPUs at 512K
    {"1F1B t=8 c=1 d=2 p=4 ckpt=full", 0.21551934163913608},
    {"Interleaved 1F1B t=8 c=1 d=2 p=4 v=10 ckpt=full", 0.34660513269883603},
    {"out of memory", 0.0},
    {"SlimPipe t=4 c=2 d=1 p=8 v=5 n=8 ckpt=none", 0.4649577931207613},
    // Mixtral 8x7B on 128 GPUs at 512K
    {"1F1B t=8 c=1 d=8 p=2 ckpt=full", 0.1900739205699925},
    {"Interleaved 1F1B t=8 c=1 d=8 p=2 ckpt=full", 0.1900739205699925},
    {"out of memory", 0.0},
    {"SlimPipe t=4 c=2 d=2 p=8 v=4 n=16 ckpt=none", 0.44335572854428562},
};

std::string check_winner(std::size_t index, const parallel::SearchResult& r) {
  const Pin& pin = kPlanPins[index];
  const std::string config =
      r.status == parallel::SearchStatus::Ok ? r.best.describe()
                                             : parallel::to_string(r.status);
  if (config == pin.config && r.result.mfu == pin.mfu) return {};
  return "search " + std::to_string(index) + " winner {\"" + config + "\", " +
         fmt(r.result.mfu) + "}";
}

/// One sweep: all searches, every winner checked. Returns the mismatches.
std::string plan_sweep(std::vector<parallel::SearchResult>* results) {
  const std::vector<Search> searches = plan_grid_searches();
  std::string wrong;
  for (std::size_t i = 0; i < searches.size(); ++i) {
    parallel::SearchResult r = run_search(searches[i], {});
    const std::string verdict = check_winner(i, r);
    if (!verdict.empty()) wrong += (wrong.empty() ? "" : "; ") + verdict;
    if (results != nullptr) results->push_back(std::move(r));
  }
  return wrong;
}

}  // namespace

void run_sim_large(const Options& options, Report& report) {
  const sched::PipelineSpec spec = sim_large_spec();
  const double tokens = static_cast<double>(spec.total_tokens());
  report.add("setup_s", "s", time_setups(3, report, [&] {
               return check_sim_large(
                   core::run_scheme(core::Scheme::SlimPipe, sim_large_spec()));
             }));

  if (!options.trace) {
    const std::vector<double> iters =
        timed_loop(options.seconds, report, [&](double* elapsed) {
          const Clock::time_point start = Clock::now();
          const sched::ScheduleResult r =
              core::run_scheme(core::Scheme::SlimPipe, spec);
          *elapsed = seconds_since(start);
          return check_sim_large(r);
        });
    report_end_to_end(report, iters, tokens);
    return;
  }

  // Traced: each iteration times run_scheme itself, then the same calls one
  // layer at a time; unattributed = run_scheme's time minus the phase sum.
  std::vector<Phases> phases;
  std::vector<double> unattributed;
  timed_loop(options.seconds, report, [&](double* elapsed) {
    const Clock::time_point start = Clock::now();
    const sched::ScheduleResult r =
        core::run_scheme(core::Scheme::SlimPipe, spec);
    *elapsed = seconds_since(start);
    std::string verdict = check_sim_large(r);
    if (!verdict.empty()) return verdict;
    Phases p;
    verdict = decompose(core::Scheme::SlimPipe, spec, r, &p);
    if (!verdict.empty()) return "decomposition differs from run_scheme: " + verdict;
    phases.push_back(p);
    unattributed.push_back(*elapsed - p.total());
    return verdict;
  });
  report_phases(report, phases, unattributed);
}

void run_plan_grid(const Options& options, Report& report) {
  const std::size_t searches = plan_grid_searches().size();
  const double tokens = static_cast<double>(kPlanTokens * searches);
  report.add("setup_s", "s", time_setups(3, report, [] {
               return plan_sweep(nullptr);
             }));

  if (!options.trace) {
    const std::vector<double> iters =
        timed_loop(options.seconds, report, [&](double* elapsed) {
          const Clock::time_point start = Clock::now();
          std::string verdict = plan_sweep(nullptr);
          *elapsed = seconds_since(start);
          return verdict;
        });
    report_end_to_end(report, iters, tokens);
    return;
  }

  // Traced: per iteration, the full sweep, the same searches with
  // simulate_top_k = 0 (the analytic part alone), and every winner
  // decomposed through run_scheme's layers.
  parallel::SearchOptions analytic_only;
  analytic_only.simulate_top_k = 0;
  std::vector<double> analytic_s, simulate_s, valid, fit, unattributed;
  std::vector<Phases> phases;
  const std::vector<Search> all = plan_grid_searches();
  timed_loop(options.seconds, report, [&](double* elapsed) {
    Clock::time_point start = Clock::now();
    std::vector<parallel::SearchResult> results;
    const std::string verdict = plan_sweep(&results);
    *elapsed = seconds_since(start);
    if (!verdict.empty()) return verdict;
    start = Clock::now();
    double candidates_valid = 0.0, candidates_fit = 0.0;
    for (const Search& s : all) {
      const parallel::SearchResult r = run_search(s, analytic_only);
      candidates_valid += r.candidates_valid;
      candidates_fit += r.candidates_fit;
    }
    const double analytic = seconds_since(start);
    Phases sum;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].status != parallel::SearchStatus::Ok) continue;
      const parallel::HybridConfig& best = results[i].best;
      Phases p;
      const std::string diff = decompose(
          best.scheme,
          parallel::make_spec(best, model_of(all[i].model), model::hopper80(),
                              all[i].seq, kPlanTokens),
          results[i].result, &p);
      if (!diff.empty()) {
        return "search " + std::to_string(i) +
               " decomposition differs from run_scheme: " + diff;
      }
      sum.add(p);
    }
    analytic_s.push_back(analytic);
    simulate_s.push_back(*elapsed - analytic);
    valid.push_back(candidates_valid);
    fit.push_back(candidates_fit);
    phases.push_back(sum);
    unattributed.push_back(*elapsed - analytic - sum.total());
    return std::string();
  });
  report_phases(report, phases, unattributed);
  report.add("parallel.analytic_s", "s", analytic_s);
  report.add("parallel.simulate_s", "s", simulate_s);
  report.add("parallel.candidates_valid", "count", valid);
  report.add("parallel.candidates_fit", "count", fit);
}

}  // namespace perfbench
