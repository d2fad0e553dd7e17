// Pinned digests of the simulator's outputs. Each case compiles one scheme's
// schedule, executes it and replays its memory, then folds every output bit
// into a 64-bit FNV-1a digest: the bytes of each OpTiming, the makespan and
// per-device compute busy time, every DeviceMemory field, the RunMetrics
// stages, the trace spans and flow arrows, and the ASCII timeline. The pinned
// values were generated by an earlier implementation of the graph, executor
// and exchange planner; any change to storage or traversal order that moves
// a single bit of a timing, peak or metric changes a digest.
//
// To inspect a failing case, the message prints the observed digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/memory/tracker.hpp"
#include "src/model/transformer.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sched/builder.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/trace.hpp"

namespace slim {
namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

void fold_exec(Fnv& h, const sim::ExecResult& exec) {
  h.i64(static_cast<std::int64_t>(exec.timings.size()));
  for (const sim::OpTiming& t : exec.timings) h.bytes(&t, sizeof(t));
  h.f64(exec.makespan);
  h.i64(static_cast<std::int64_t>(exec.compute_busy.size()));
  for (const double busy : exec.compute_busy) h.f64(busy);
}

void fold_memory(Fnv& h, const mem::MemoryReport& memory) {
  h.i64(static_cast<std::int64_t>(memory.devices.size()));
  for (const mem::DeviceMemory& dev : memory.devices) {
    h.f64(dev.peak);
    h.f64(dev.peak_time);
    for (const double v : dev.at_peak) h.f64(v);
    for (const double v : dev.category_peak) h.f64(v);
    h.f64(dev.end);
  }
}

void fold_metrics(Fnv& h, const obs::RunMetrics& metrics) {
  h.f64(metrics.makespan);
  h.i64(static_cast<std::int64_t>(metrics.stages.size()));
  for (const obs::StageMetrics& s : metrics.stages) {
    h.i64(s.device);
    h.f64(s.compute_seconds);
    h.f64(s.comm_seconds);
    h.f64(s.idle_seconds);
    h.f64(s.bubble_fraction);
    h.i64(s.peak_live_slices);
    h.i64(s.p2p_messages);
    h.f64(s.p2p_bytes);
    h.f64(s.exchange_bytes);
    h.f64(s.peak_memory_bytes);
  }
}

void fold_trace(Fnv& h, const obs::Trace& trace) {
  h.i64(static_cast<std::int64_t>(trace.spans.size()));
  for (const obs::TraceSpan& span : trace.spans) {
    h.i64(span.track);
    h.f64(span.start);
    h.f64(span.end);
    h.str(span.name);
    h.str(span.cat);
  }
  h.i64(static_cast<std::int64_t>(trace.flows.size()));
  for (const obs::TraceFlowPoint& flow : trace.flows) {
    h.i64(flow.id);
    h.i64(flow.track);
    h.f64(flow.ts);
    h.i64(flow.begin ? 1 : 0);
    h.str(flow.name);
  }
  for (const auto& [track, name] : trace.track_names) {
    h.i64(track);
    h.str(name);
  }
}

void fold_result(Fnv& h, const sched::ScheduleResult& r) {
  h.f64(r.iteration_time);
  h.f64(r.bubble_fraction);
  h.f64(r.mfu);
  h.f64(r.peak_memory);
  h.f64(r.exchange_bytes_max_device);
  h.f64(r.fault_injected_seconds);
  h.f64(r.fault_recovery_seconds);
  fold_memory(h, r.memory);
  fold_metrics(h, r.metrics);
}

/// Digest of one scheme run: the graph-level pieces (compile, optional
/// fault injection, execute, replay, metrics, trace, timeline) plus the
/// library entry point's ScheduleResult for the same inputs.
std::uint64_t digest(core::Scheme scheme, sched::PipelineSpec spec,
                     const fault::FaultPlan* faults) {
  if (scheme == core::Scheme::Interleaved1F1B && spec.v == 1) spec.v = 2;
  const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
  std::unique_ptr<core::ExchangePlanner> planner;
  if (plan.spec.context_exchange && plan.spec.p > 1) {
    planner = std::make_unique<core::ExchangePlanner>(plan.spec);
  }
  sched::BuildOutput built =
      sched::compile(plan.spec, plan.programs, planner.get());
  if (faults != nullptr) fault::apply_to_graph(*built.graph, *faults, nullptr);
  const sim::ExecResult exec = sim::execute(*built.graph);
  const mem::MemoryReport memory = mem::replay_memory(
      *built.graph, exec, plan.spec.p, built.baseline);
  const obs::RunMetrics metrics =
      obs::metrics_from_sim(*built.graph, exec, plan.spec.p, &memory);

  Fnv h;
  h.i64(static_cast<std::int64_t>(built.graph->ops().size()));
  fold_exec(h, exec);
  fold_memory(h, memory);
  fold_metrics(h, metrics);
  fold_trace(h, obs::trace_from_sim(*built.graph, exec));
  h.str(sim::ascii_timeline(*built.graph, exec));
  if (faults != nullptr) {
    h.f64(fault::recovery_overhead(*built.graph, exec, *faults, nullptr));
    fold_result(h, core::run_scheme_faulted(scheme, spec, *faults));
  } else {
    fold_result(h, core::run_scheme(scheme, spec, /*want_timeline=*/true));
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Point A: 4 ranks, one per node (every transfer crosses a NIC), full
/// checkpointing, 8 microbatches of 32K tokens.
sched::PipelineSpec point_a() {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::Full;
  spec.p = 4;
  spec.v = 1;
  spec.n = 4;
  spec.m = 8;
  spec.seq = 32 * 1024;
  return spec;
}

/// Point B: 2 ranks on one node (NVLink), two chunks per device, no
/// checkpointing, 4 microbatches of 16K tokens.
sched::PipelineSpec point_b() {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {4, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = 2;
  spec.v = 2;
  spec.n = 4;
  spec.m = 4;
  spec.seq = 16 * 1024;
  return spec;
}

struct SchemePin {
  core::Scheme scheme;
  std::uint64_t a;
  std::uint64_t b;
};

// Pinned digests per scheme at point A and point B.
const SchemePin kSchemePins[] = {
    {core::Scheme::GPipe, 0x15fa13f38970590bull, 0x0954c18c22ee9a48ull},
    {core::Scheme::TeraPipe, 0x8a44ada1afd2febfull, 0xf9b487287899044aull},
    {core::Scheme::OneF1B, 0xc49baeb23fc7a62bull, 0xefdaf9567d9549a9ull},
    {core::Scheme::Interleaved1F1B, 0x25091de699587f86ull,
     0x8f4a9d214ca1104eull},
    {core::Scheme::ZBV, 0x5e76fd69dfe507f0ull, 0x58a8365846210c60ull},
    {core::Scheme::VHalf, 0xe2ca91f87d9c8152ull, 0x58a8365846210c60ull},
    {core::Scheme::VMin, 0x3622ad0840ca472full, 0x58a8365846210c60ull},
    {core::Scheme::SlimPipe, 0x07240436521d2907ull, 0x5a05b8584ded36ceull},
};

TEST(SimGoldenTest, EverySchemeAtTwoPoints) {
  for (const SchemePin& pin : kSchemePins) {
    EXPECT_EQ(hex(digest(pin.scheme, point_a(), nullptr)), hex(pin.a))
        << core::scheme_name(pin.scheme) << " at point A";
    EXPECT_EQ(hex(digest(pin.scheme, point_b(), nullptr)), hex(pin.b))
        << core::scheme_name(pin.scheme) << " at point B";
  }
}

TEST(SimGoldenTest, SlimPipeWithOffload) {
  sched::PipelineSpec spec = point_a();
  spec.offload.ratio = 0.5;
  spec.offload.pcie_bandwidth = spec.gpu.pcie_bandwidth;
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, spec, nullptr)),
            hex(0x0dd8f917ad9b032full));
}

TEST(SimGoldenTest, SlimPipeWithVocabParallel) {
  sched::PipelineSpec spec = point_a();
  spec.vocab_parallel = true;
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, spec, nullptr)),
            hex(0x528c7dd0d3aac3e8ull));
}

TEST(SimGoldenTest, SlimPipeWithContextExchange) {
  sched::PipelineSpec spec = point_a();
  spec.n = 8;
  spec.context_exchange = true;
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, spec, nullptr)),
            hex(0xb2980940c2801dc3ull));
  sched::PipelineSpec b = point_b();
  b.v = 1;
  b.context_exchange = true;
  b.vocab_parallel = true;
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, b, nullptr)),
            hex(0x3b573462445bb872ull));
}

TEST(SimGoldenTest, SlimPipeWithAdaptiveExchange) {
  sched::PipelineSpec spec = point_a();
  spec.n = 8;
  spec.context_exchange = true;
  spec.adaptive_exchange = true;
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, spec, nullptr)),
            hex(0x24a5e47e42547b71ull));
}

TEST(SimGoldenTest, SlimPipeWithElasticLayout) {
  sched::PipelineSpec spec = point_a();
  spec.m = 4;
  const std::vector<std::vector<std::int64_t>> lens = {
      {12288, 8192, 6144, 6144},
      {4096, 4096, 4096, 4096},
      {16384, 8192, 4096, 4096},
      {2048, 2048, 2048, 26624}};
  for (const auto& l : lens) {
    spec.layouts.push_back(core::SliceLayout::from_lens(l));
  }
  ASSERT_EQ(spec.validate(), "");
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, spec, nullptr)),
            hex(0x08190f8157c203e3ull));
}

TEST(SimGoldenTest, FaultedSlimPipeWithExchange) {
  sched::PipelineSpec spec = point_a();
  spec.n = 8;
  spec.context_exchange = true;
  fault::FaultPlan faults;
  faults.seed = 11;
  faults.stragglers.push_back({1, fault::OpFilter::Forward, 1.5, 0.2, 3, 40});
  faults.links.push_back({2, 2.0, 1e-4});
  faults.crashes.push_back({3, 17, 2.0});
  EXPECT_EQ(hex(digest(core::Scheme::SlimPipe, spec, &faults)),
            hex(0x594da9945346c22full));
}

}  // namespace
}  // namespace slim
