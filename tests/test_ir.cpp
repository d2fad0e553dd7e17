// Tabular schedule IR (src/ir) and the whole-schedule verification engine
// (src/analysis/verify).
//
// Strategy mirrors test_analysis: a clean differential sweep over every
// scheme proving lowering -> export -> import -> verify -> simulate is
// finding-free and identical to the direct path, one deliberately corrupted
// fixture per verify rule asserting the exact rule_id, a golden text file
// pinning the on-disk format, and a reconciliation of the static memory
// certificate against the simulator's replayed footprint.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/findings.hpp"
#include "src/analysis/verify.hpp"
#include "src/core/context_exchange.hpp"
#include "src/core/runner.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/memory/reconcile.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schedule.hpp"

namespace {

using namespace slim;
using analysis::has_rule;
using ir::kNoEndpoint;
using ir::Row;
using ir::ScheduleIR;
using sched::Pass;
using sched::PassType;

sched::PipelineSpec base_spec(int p, int n, int m) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.p = p;
  spec.v = 1;
  spec.n = n;
  spec.m = m;
  spec.seq = 131072;
  spec.offload.pcie_bandwidth = spec.gpu.pcie_bandwidth;
  return spec;
}

/// The acceptance grid: every scheme over p/n/m/v sweep points (TeraPipe's
/// n rounded up to a multiple of p, matching slimpipe_lint --sweep).
struct GridPoint {
  core::Scheme scheme;
  sched::PipelineSpec spec;
  std::string label;
};

std::vector<GridPoint> sweep_grid() {
  std::vector<GridPoint> points;
  for (const core::Scheme scheme : core::all_schemes()) {
    for (const int p : {2, 4}) {
      for (int n : {1, 4}) {
        for (const int m : {p, 2 * p}) {
          for (const int v : {1, 2}) {
            if (scheme == core::Scheme::TeraPipe && n > 1 && n % p != 0) {
              n = ((n + p - 1) / p) * p;
            }
            sched::PipelineSpec spec = base_spec(p, n, m);
            spec.v = v;
            spec.vocab_parallel = scheme == core::Scheme::SlimPipe;
            std::ostringstream label;
            label << core::scheme_name(scheme) << " p=" << p << " n=" << n
                  << " m=" << m << " v=" << v;
            points.push_back({scheme, std::move(spec), label.str()});
          }
        }
      }
    }
  }
  return points;
}

ScheduleIR lower_plan(const core::SchedulePlan& plan, core::Scheme scheme) {
  return ir::lower(plan.spec, plan.programs, core::scheme_name(scheme));
}

core::SchedulePlan onef1b_plan(int p, int m) {
  return core::plan_scheme(core::Scheme::OneF1B, base_spec(p, 1, m));
}

/// Renumbers each device's rows to contiguous order after a surgical edit,
/// keeping the structural rule out of fixtures that target another rule.
void renumber(ScheduleIR& table) {
  table.canonicalize();
  int device = -1, order = 0;
  for (Row& row : table.rows) {
    if (row.device != device) {
      device = row.device;
      order = 0;
    }
    row.order = order++;
  }
}

// ---------------------------------------------------------------------------
// Round trip: lowering every scheme exports to text that re-imports
// byte-identically and verifies clean.

TEST(IrRoundTrip, ExportImportByteIdenticalAcrossSweep) {
  for (const GridPoint& point : sweep_grid()) {
    SCOPED_TRACE(point.label);
    const core::SchedulePlan plan =
        core::plan_scheme(point.scheme, point.spec);
    const ScheduleIR table = lower_plan(plan, point.scheme);

    const std::string text = ir::export_text(table);
    const ScheduleIR imported = ir::import_text(text);
    EXPECT_EQ(imported, table);
    EXPECT_EQ(ir::export_text(imported), text);  // byte-identical

    // The header reproduces the normalized spec; re-lowering the
    // reconstructed programs under it reproduces the table exactly.
    const sched::PipelineSpec applied =
        ir::apply_header(imported, point.spec);
    EXPECT_EQ(applied.validate(), "");
    EXPECT_EQ(applied.max_inflight_units, plan.max_inflight_units);
    const ScheduleIR relowered =
        ir::lower(applied, ir::to_programs(imported), table.scheme);
    EXPECT_EQ(relowered, table);

    const analysis::VerifyResult verdict =
        analysis::verify_ir(imported, applied);
    EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
  }
}

// ---------------------------------------------------------------------------
// Differential: simulating the imported table is identical to the direct
// scheme path — same times, same memory, device by device.

TEST(IrDifferential, ImportedScheduleSimulatesIdentically) {
  for (const GridPoint& point : sweep_grid()) {
    SCOPED_TRACE(point.label);
    const core::SchedulePlan plan =
        core::plan_scheme(point.scheme, point.spec);

    std::unique_ptr<core::ExchangePlanner> direct_planner;
    if (plan.spec.context_exchange && plan.spec.p > 1) {
      direct_planner = std::make_unique<core::ExchangePlanner>(plan.spec);
    }
    const sched::ScheduleResult direct = sched::run_pipeline(
        plan.spec, plan.programs, direct_planner.get(), "diff");

    // The external path a user of slimpipe_sim --schedule takes.
    const ScheduleIR table =
        ir::import_text(ir::export_text(lower_plan(plan, point.scheme)));
    const sched::PipelineSpec applied = ir::apply_header(table, point.spec);
    const analysis::VerifyResult verdict =
        analysis::verify_ir(table, applied);
    ASSERT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
    std::unique_ptr<core::ExchangePlanner> planner;
    if (applied.context_exchange && applied.p > 1) {
      planner = std::make_unique<core::ExchangePlanner>(applied);
    }
    const sched::ScheduleResult imported = sched::run_pipeline(
        applied, ir::to_programs(table), planner.get(), "diff");

    EXPECT_EQ(imported.iteration_time, direct.iteration_time);
    EXPECT_EQ(imported.bubble_fraction, direct.bubble_fraction);
    EXPECT_EQ(imported.mfu, direct.mfu);
    EXPECT_EQ(imported.peak_memory, direct.peak_memory);
    EXPECT_EQ(imported.first_device_memory, direct.first_device_memory);
    EXPECT_EQ(imported.last_device_memory, direct.last_device_memory);
    EXPECT_EQ(imported.device_peaks, direct.device_peaks);
    EXPECT_EQ(imported.exchange_bytes_max_device,
              direct.exchange_bytes_max_device);
    EXPECT_EQ(imported.oom, direct.oom);
  }
}

// ---------------------------------------------------------------------------
// Golden file: the text format is stable across changes — the checked-in
// export re-imports byte-identically and matches a fresh lowering.

TEST(IrGolden, GoldenFileRoundTripsAndMatchesLowering) {
  const std::string path =
      std::string(SLIM_TEST_DATA_DIR) + "/golden_1f1b_p2_m4.ir";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();

  const ScheduleIR imported = ir::import_text(golden);
  EXPECT_EQ(ir::export_text(imported), golden);

  const core::SchedulePlan plan = onef1b_plan(2, 4);
  EXPECT_EQ(ir::lower(plan.spec, plan.programs, "1F1B"), imported);

  const sched::PipelineSpec applied =
      ir::apply_header(imported, base_spec(2, 1, 4));
  const analysis::VerifyResult verdict =
      analysis::verify_ir(imported, applied);
  EXPECT_TRUE(verdict.ok()) << analysis::render(verdict.findings);
}

// ---------------------------------------------------------------------------
// Corrupted fixtures: one per verify rule.

TEST(VerifyDeadlock, ReorderedBackwardYieldsWitnessCycle) {
  core::SchedulePlan plan = onef1b_plan(2, 2);
  // Every device keeps each unit's F before its B, but the two devices
  // disagree on the microbatch order. Device 0 runs F0 B0 F1 B1: its B0
  // waits on device 1's B0, which device 1 (F1 B1 F0 B0) runs after F0,
  // which it runs after B1, which waits on F1 — and device 0 only sends
  // F1 after B0. A genuine 6-row cycle across both devices.
  sched::DeviceProgram& first = plan.programs[0];
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(first[1].type, PassType::Forward);
  ASSERT_EQ(first[2].type, PassType::Backward);
  std::swap(first[1], first[2]);  // F0 F1 B0 B1 -> F0 B0 F1 B1
  sched::DeviceProgram& last = plan.programs[1];
  ASSERT_EQ(last.size(), 4u);
  std::swap(last[0], last[2]);  // F0 B0 F1 B1 -> F1 B0 F0 B1
  std::swap(last[1], last[3]);  //             -> F1 B1 F0 B0

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::OneF1B), plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-deadlock"))
      << analysis::render(verdict.findings);
  for (const analysis::Finding& finding : verdict.findings) {
    if (finding.rule_id != "verify-deadlock") continue;
    EXPECT_NE(finding.message.find("witness cycle"), std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("length 6"), std::string::npos)
        << finding.message;
  }
}

TEST(VerifyCausality, DroppedSendLeavesDanglingRecv) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 0 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  it->send_to = kNoEndpoint;  // device 1 still expects the activation

  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  bool dangling = false;
  for (const analysis::Finding& finding : verdict.findings) {
    dangling = dangling ||
               finding.message.find("dangling recv") != std::string::npos;
  }
  EXPECT_TRUE(dangling) << analysis::render(verdict.findings);
  EXPECT_FALSE(has_rule(verdict.findings, "verify-progress"));
  EXPECT_FALSE(has_rule(verdict.findings, "verify-deadlock"));
}

TEST(VerifyCausality, UnmatchedSendReported) {
  // Device 1 stops declaring the receive of microbatch 0's activation:
  // device 0's send is never consumed.
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 1 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  it->recv_from = kNoEndpoint;

  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  bool unconsumed = false;
  for (const analysis::Finding& finding : verdict.findings) {
    unconsumed = unconsumed || finding.message.find("is never received") !=
                                   std::string::npos;
  }
  EXPECT_TRUE(unconsumed) << analysis::render(verdict.findings);
}

TEST(VerifyCausality, OutOfFifoReceiveReported) {
  // Device 0 posts activations for microbatches 0, 1, 2, 3 in that order;
  // the last stage consumes microbatch 1 first. Each unit still runs F
  // before B, so the table is deadlock-free — but a rendezvous or ordered
  // transport would deliver microbatch 0's payload to microbatch 1's recv.
  core::SchedulePlan plan = onef1b_plan(2, 4);
  sched::DeviceProgram& last = plan.programs[1];
  ASSERT_EQ(last[0].type, PassType::Forward);
  ASSERT_EQ(last[2].type, PassType::Forward);
  std::swap(last[0], last[2]);  // F0 B0 F1 B1 ... -> F1 B0 F0 B1 ...
  std::swap(last[1], last[3]);  //                -> F1 B1 F0 B0 F2 B2 F3 B3

  const analysis::VerifyResult verdict = analysis::verify_ir(
      lower_plan(plan, core::Scheme::OneF1B), plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-causality"))
      << analysis::render(verdict.findings);
  bool fifo = false;
  for (const analysis::Finding& finding : verdict.findings) {
    fifo = fifo || finding.message.find("out-of-FIFO") != std::string::npos;
  }
  EXPECT_TRUE(fifo) << analysis::render(verdict.findings);
  EXPECT_FALSE(has_rule(verdict.findings, "verify-deadlock"))
      << analysis::render(verdict.findings);
}

TEST(VerifyProgress, RemovedForwardOrphansBackward) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 0 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  table.rows.erase(it);
  renumber(table);  // keep ir-structure out of this fixture

  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(has_rule(verdict.findings, "verify-progress"))
      << analysis::render(verdict.findings);
  bool orphaned = false;
  for (const analysis::Finding& finding : verdict.findings) {
    if (finding.rule_id != "verify-progress") continue;
    EXPECT_NE(finding.location.find("stage 0"), std::string::npos)
        << finding.location;
    orphaned = orphaned ||
               finding.message.find("orphaned backward") != std::string::npos;
  }
  EXPECT_TRUE(orphaned) << analysis::render(verdict.findings);
}

TEST(VerifyMemoryCert, OverBudgetLedgerFlagged) {
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::GPipe, base_spec(2, 1, 4));
  const ScheduleIR table = lower_plan(plan, core::Scheme::GPipe);

  const analysis::VerifyResult clean = analysis::verify_ir(table, plan.spec);
  ASSERT_TRUE(clean.ok()) << analysis::render(clean.findings);
  const double peak = clean.certificate.device_peak[0];
  ASSERT_GT(peak, 0.0);

  analysis::VerifyOptions options;
  options.activation_budget_bytes = peak * 0.5;
  const analysis::VerifyResult tight =
      analysis::verify_ir(table, plan.spec, options);
  ASSERT_TRUE(has_rule(tight.findings, "verify-memory-cert"))
      << analysis::render(tight.findings);
  bool budget = false;
  for (const analysis::Finding& finding : tight.findings) {
    budget = budget ||
             finding.message.find("exceeds the budget") != std::string::npos;
  }
  EXPECT_TRUE(budget) << analysis::render(tight.findings);
}

TEST(VerifyMemoryCert, NegativeLedgerDipFlagged) {
  // A lone backward frees activation that was never allocated.
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  const auto it = std::find_if(
      table.rows.begin(), table.rows.end(), [](const Row& row) {
        return row.device == 0 && row.kind == PassType::Forward &&
               row.microbatch == 0;
      });
  ASSERT_NE(it, table.rows.end());
  table.rows.erase(it);
  renumber(table);
  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  EXPECT_TRUE(has_rule(verdict.findings, "verify-memory-cert"))
      << analysis::render(verdict.findings);
}

TEST(IrStructure, DuplicateOrderFlagged) {
  const core::SchedulePlan plan = onef1b_plan(2, 2);
  ScheduleIR table = lower_plan(plan, core::Scheme::OneF1B);
  table.rows[1].order = table.rows[0].order;
  const analysis::VerifyResult verdict = analysis::verify_ir(table, plan.spec);
  EXPECT_TRUE(has_rule(verdict.findings, "ir-structure"))
      << analysis::render(verdict.findings);
}

// ---------------------------------------------------------------------------
// Row order: sched::compile hands verify_ir canonical tables only, but
// imported and hand-written tables may list rows in any order. The verdict
// must not depend on it.

void expect_same_verdict(const analysis::VerifyResult& a,
                         const analysis::VerifyResult& b,
                         const std::string& label) {
  EXPECT_EQ(analysis::render(a.findings), analysis::render(b.findings))
      << label;
  const analysis::MemoryCertificate& x = a.certificate;
  const analysis::MemoryCertificate& y = b.certificate;
  EXPECT_EQ(x.kv_category, y.kv_category) << label;
  ASSERT_EQ(x.stages.size(), y.stages.size()) << label;
  for (std::size_t i = 0; i < x.stages.size(); ++i) {
    EXPECT_EQ(x.stages[i].stage, y.stages[i].stage) << label;
    EXPECT_EQ(x.stages[i].device, y.stages[i].device) << label;
    EXPECT_EQ(x.stages[i].unit_bytes, y.stages[i].unit_bytes) << label;
    EXPECT_EQ(x.stages[i].peak_bytes, y.stages[i].peak_bytes) << label;
  }
  EXPECT_EQ(x.device_activation_peak, y.device_activation_peak) << label;
  EXPECT_EQ(x.device_kv_peak, y.device_kv_peak) << label;
  EXPECT_EQ(x.device_peak, y.device_peak) << label;
}

TEST(VerifyRowOrder, ShuffledRowsGiveSameVerdict) {
  sched::PipelineSpec spec = base_spec(4, 4, 8);
  spec.v = 2;
  const core::SchedulePlan plan =
      core::plan_scheme(core::Scheme::SlimPipe, spec);
  const ScheduleIR clean = lower_plan(plan, core::Scheme::SlimPipe);

  // Orphaned backward: device 0's first forward turned into a backward.
  ScheduleIR orphaned = clean;
  ASSERT_EQ(orphaned.rows[0].kind, PassType::Forward);
  orphaned.rows[0].kind = PassType::Backward;
  // Dropped send: device 1's first forward no longer ships its output.
  ScheduleIR dropped = clean;
  const auto it = std::find_if(
      dropped.rows.begin(), dropped.rows.end(), [](const Row& row) {
        return row.device == 1 && row.kind == PassType::Forward;
      });
  ASSERT_NE(it, dropped.rows.end());
  it->send_to = kNoEndpoint;

  std::mt19937 rng(20251019);
  const std::pair<const ScheduleIR*, const char*> cases[] = {
      {&clean, "clean"}, {&orphaned, "orphaned"}, {&dropped, "dropped"}};
  for (const auto& [table, label] : cases) {
    const analysis::VerifyResult canonical =
        analysis::verify_ir(*table, plan.spec);
    EXPECT_EQ(canonical.ok(), table == &clean)
        << label << ": " << analysis::render(canonical.findings);
    ScheduleIR shuffled = *table;
    std::shuffle(shuffled.rows.begin(), shuffled.rows.end(), rng);
    ASSERT_NE(shuffled.rows, table->rows) << label;
    expect_same_verdict(canonical, analysis::verify_ir(shuffled, plan.spec),
                        label);
  }
}

// ---------------------------------------------------------------------------
// Memory certificate: the statically certified per-device peaks reconcile
// with the simulator's replayed footprint within the standard tolerance.

TEST(MemoryCert, ReconcilesWithReplayedFootprint) {
  for (const core::Scheme scheme :
       {core::Scheme::GPipe, core::Scheme::OneF1B, core::Scheme::TeraPipe,
        core::Scheme::ZBV, core::Scheme::VHalf,
        core::Scheme::Interleaved1F1B, core::Scheme::SlimPipe}) {
    SCOPED_TRACE(core::scheme_name(scheme));
    sched::PipelineSpec spec = base_spec(4, 4, 4);
    spec.v = 2;
    spec.context_exchange = false;  // exchange traffic is outside the cert
    const core::SchedulePlan plan = core::plan_scheme(scheme, spec);
    const analysis::VerifyResult verdict =
        analysis::verify_ir(lower_plan(plan, scheme), plan.spec);
    ASSERT_TRUE(verdict.ok()) << analysis::render(verdict.findings);

    const sched::ScheduleResult result =
        sched::run_pipeline(plan.spec, plan.programs, nullptr, "cert");
    const mem::ReconcileReport report = mem::reconcile_peaks(
        result.memory, verdict.certificate.measured_peaks(), 0.5);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

// ---------------------------------------------------------------------------
// Import rejects malformed text with line-numbered errors.

TEST(IrImport, RejectsMalformedText) {
  EXPECT_THROW(ir::import_text(""), std::runtime_error);
  EXPECT_THROW(ir::import_text("not-an-ir 1\nend\n"), std::runtime_error);
  const std::string no_end =
      "slimpipe-ir 1\nscheme x\np 1\nv 1\nn 1\nm 1\n"
      "columns device order kind mb slice chunk stage recv send\n";
  EXPECT_THROW(ir::import_text(no_end), std::runtime_error);
  const std::string bad_row =
      no_end + "row 0 0 Q 0 0 0 0 . .\nend\n";
  EXPECT_THROW(ir::import_text(bad_row), std::runtime_error);
}

}  // namespace
