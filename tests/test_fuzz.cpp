// Randomized property tests: arbitrary valid pipeline specifications must
// compile, execute without deadlock, conserve memory (every activation byte
// allocated is freed by the end of the iteration) and produce physically
// sane measurements — for every scheme. A mutation differential pins the
// static gate: every mutated schedule it accepts must build and run.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <exception>
#include <string>
#include <utility>

#include "src/analysis/graph_check.hpp"
#include "src/analysis/schedule_check.hpp"
#include "src/core/runner.hpp"
#include "src/memory/tracker.hpp"
#include "src/model/transformer.hpp"
#include "src/sched/builder.hpp"
#include "src/sim/executor.hpp"
#include "src/util/rng.hpp"

namespace slim {
namespace {

sched::PipelineSpec random_spec(Rng& rng, core::Scheme scheme) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.gpu.memory_bytes = 1e18;  // fuzzing structure, not OOM
  spec.shard = {8, 1, 1, 8};
  const int p_choices[] = {1, 2, 3, 4, 5, 8};
  spec.p = p_choices[rng.next_below(6)];
  spec.m = 1 + static_cast<int>(rng.next_below(6));
  spec.seq = 8192 * (1 + static_cast<std::int64_t>(rng.next_below(8)));
  spec.policy = static_cast<model::CheckpointPolicy>(rng.next_below(3));

  switch (scheme) {
    case core::Scheme::Interleaved1F1B:
      spec.m = spec.p * (1 + static_cast<int>(rng.next_below(3)));
      spec.v = 1 + static_cast<int>(rng.next_below(4));
      while (spec.cfg.layers < spec.p * spec.v) --spec.v;
      break;
    case core::Scheme::ZBV:
    case core::Scheme::VHalf:
    case core::Scheme::VMin:
      spec.v = 2;
      if (spec.cfg.layers < 2 * spec.p) spec.p = 4;
      break;
    case core::Scheme::SlimPipe: {
      const int mult = 1 << rng.next_below(3);
      spec.n = spec.p * mult;
      // Keep slices uniform.
      spec.seq = static_cast<std::int64_t>(spec.n) * 4096;
      spec.v = 1 + static_cast<int>(rng.next_below(3));
      while (spec.cfg.layers < spec.p * spec.v) --spec.v;
      spec.vocab_parallel = rng.next_below(2) == 0;
      spec.context_exchange = rng.next_below(2) == 0;
      spec.adaptive_exchange = rng.next_below(2) == 0;
      break;
    }
    case core::Scheme::TeraPipe: {
      const int mult = 1 << rng.next_below(3);
      spec.n = spec.p * mult;
      spec.seq = static_cast<std::int64_t>(spec.n) * 4096;
      break;
    }
    default:
      break;
  }
  return spec;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomSpecsExecuteSanely) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  for (const auto scheme : core::all_schemes()) {
    const sched::PipelineSpec spec = random_spec(rng, scheme);
    sched::ScheduleResult r;
    ASSERT_NO_THROW(r = core::run_scheme(scheme, spec))
        << core::scheme_name(scheme) << " p=" << spec.p << " m=" << spec.m
        << " n=" << spec.n << " v=" << spec.v << " seq=" << spec.seq;
    EXPECT_GT(r.iteration_time, 0.0);
    EXPECT_GE(r.bubble_fraction, 0.0);
    EXPECT_LT(r.bubble_fraction, 1.0);
    EXPECT_GT(r.mfu, 0.0);
    EXPECT_LT(r.mfu, 0.75);
    EXPECT_GT(r.peak_memory, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 12));

// Memory conservation: after the iteration, every transient byte is freed —
// activations, KV chunks and logits all return to zero; only static model
// state remains. Every scheme runs with the sharded (vocab-parallel) output
// layer, whose logits each device books on its last chunk's forward.
class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, AllTransientMemoryFreed) {
  Rng rng(5000 + static_cast<std::uint64_t>(GetParam()));
  for (const auto scheme : core::all_schemes()) {
    sched::PipelineSpec spec = random_spec(rng, scheme);
    spec.vocab_parallel = true;
    const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
    const auto built = sched::compile(plan.spec, plan.programs, nullptr);
    const auto exec = sim::execute(*built.graph);
    const auto report = mem::replay_memory(*built.graph, exec, plan.spec.p);
    for (int dev = 0; dev < plan.spec.p; ++dev) {
      EXPECT_NEAR(report.devices[static_cast<std::size_t>(dev)].end, 0.0, 1.0)
          << core::scheme_name(scheme) << " device " << dev
          << " leaked transient memory (p=" << plan.spec.p
          << " n=" << plan.spec.n << " v=" << plan.spec.v
          << " m=" << plan.spec.m << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest, ::testing::Range(0, 10));

// Mutation differential: check_schedule is the only schedule-level rule
// engine, so a verdict of clean must be enough. Random single-pass
// mutations (swap two passes, move one, drop one) of every scheme's
// programs at p in {2, 3, 4}, with the scheme's in-flight cap declared: a
// mutant the gate accepts must compile with the gate on, pass the graph
// lint and execute without deadlock. Each kind must also be rejected at
// least once, so the gate is not vacuously permissive.
enum Mutation : int { kSwap = 0, kMove, kDrop, kNumMutations };

constexpr const char* kMutationNames[] = {"swap", "move", "drop"};

/// Second position near `pos` (within a window of 4), so that a useful
/// share of mutants stays legal instead of scrambling whole programs.
std::size_t nearby(Rng& rng, std::size_t pos, std::size_t size) {
  const std::size_t lo = pos >= 4 ? pos - 4 : 0;
  const std::size_t hi = std::min(size - 1, pos + 4);
  return lo + rng.next_below(hi - lo + 1);
}

class GateMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(GateMutationTest, CleanVerdictImpliesBuildAndExecute) {
  ASSERT_TRUE(sched::compile_lint_enabled());
  constexpr int kTrials = 60;
  Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));
  std::array<int, kNumMutations> accepted{}, rejected{};
  for (const auto scheme : core::all_schemes()) {
    for (const int p : {2, 3, 4}) {
      sched::PipelineSpec spec;
      spec.cfg = model::llama13b();
      spec.gpu = model::hopper80();
      spec.gpu.memory_bytes = 1e18;
      spec.shard = {8, 1, 1, 8};
      spec.p = p;
      spec.v = 2;
      spec.n = scheme == core::Scheme::TeraPipe ? p : 2;
      spec.m = 2 * p;
      spec.seq = 8192 * spec.n;
      spec.vocab_parallel = true;
      const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
      analysis::ScheduleLintOptions options;
      options.max_inflight_units = plan.max_inflight_units;
      ASSERT_TRUE(
          analysis::check_schedule(plan.spec, plan.programs, options).empty());

      for (int trial = 0; trial < kTrials; ++trial) {
        std::vector<sched::DeviceProgram> programs = plan.programs;
        const int dev = static_cast<int>(rng.next_below(p));
        sched::DeviceProgram& program =
            programs[static_cast<std::size_t>(dev)];
        const auto kind = static_cast<Mutation>(rng.next_below(kNumMutations));
        const std::size_t from = rng.next_below(program.size());
        const std::size_t to = nearby(rng, from, program.size());
        if (kind != kDrop && to == from) continue;  // identity, not a mutant
        switch (kind) {
          case kSwap:
            std::swap(program[from], program[to]);
            break;
          case kMove: {
            const sched::Pass pass = program[from];
            program.erase(program.begin() + static_cast<std::ptrdiff_t>(from));
            program.insert(program.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(to, program.size())),
                           pass);
            break;
          }
          default:
            program.erase(program.begin() + static_cast<std::ptrdiff_t>(from));
            break;
        }
        const std::string label =
            std::string(core::scheme_name(scheme)) + " p=" +
            std::to_string(p) + " " + kMutationNames[kind] + " dev " +
            std::to_string(dev) + " " + std::to_string(from) + "->" +
            std::to_string(to);
        if (analysis::has_errors(
                analysis::check_schedule(plan.spec, programs, options))) {
          ++rejected[kind];
          continue;
        }
        ++accepted[kind];
        try {
          const sched::BuildOutput built =
              sched::compile(plan.spec, programs, nullptr);
          const auto findings = analysis::check_graph(*built.graph, plan.spec);
          EXPECT_TRUE(findings.empty())
              << label << "\n" << analysis::render(findings);
          sim::execute(*built.graph);
        } catch (const std::exception& e) {
          ADD_FAILURE() << label << ": gate accepted a schedule that fails "
                        << "to build or run: " << e.what();
        }
      }
    }
  }
  for (int kind = 0; kind < kNumMutations; ++kind) {
    EXPECT_GT(rejected[static_cast<std::size_t>(kind)], 0)
        << kMutationNames[kind];
  }
  // Reorderings can stay legal (a drop never does): the property must
  // actually have been exercised.
  EXPECT_GT(accepted[kSwap] + accepted[kMove], 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateMutationTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace slim
