#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/sched/builder.hpp"
#include "src/sched/schedule.hpp"

namespace slimbench {
namespace {

// Process-wide report, flushed once via atexit. Bench binaries call
// open_report() as the first line of main(); google-benchmark's own exit
// path then triggers the write without the bench needing a shutdown hook.
slim::obs::BenchReport g_report;
bool g_report_open = false;

void flush_report() {
  if (!g_report_open) return;
  const char* dir = std::getenv("SLIMPIPE_RESULTS_DIR");
  const std::string path = std::string(dir != nullptr ? dir : "results") +
                           "/bench_" + g_report.name + ".json";
  if (!slim::obs::write_report(g_report, path)) {
    std::fprintf(stderr, "bench report write failed: %s\n", path.c_str());
    return;
  }
  std::printf("\n[report] %s\n", path.c_str());
}

// Banner fields accumulate across sections (some benches reproduce two
// figures in one binary).
void append_field(std::string& field, const std::string& text) {
  if (!field.empty()) field += " | ";
  field += text;
}

}  // namespace

slim::sched::PipelineSpec base_spec(const slim::model::TransformerConfig& cfg,
                                    std::int64_t t, int p, std::int64_t seq,
                                    int m) {
  slim::sched::PipelineSpec spec;
  spec.cfg = cfg;
  spec.gpu = slim::model::hopper80();
  spec.shard = {t, 1, 1, 8};
  spec.policy = slim::model::CheckpointPolicy::None;
  spec.p = p;
  spec.m = m;
  spec.seq = seq;
  return spec;
}

void open_report(const std::string& name) {
  g_report.name = name;
  if (!g_report_open) {
    g_report_open = true;
    std::atexit(flush_report);
  }
}

void print_banner(const std::string& artifact, const std::string& setup,
                  const std::string& paper_expectation) {
  std::printf("\n================================================================\n");
  std::printf("Reproducing: %s\n", artifact.c_str());
  std::printf("Setup:       %s\n", setup.c_str());
  std::printf("Paper shape: %s\n", paper_expectation.c_str());
  std::printf("================================================================\n");
  if (g_report_open) {
    append_field(g_report.artifact, artifact);
    append_field(g_report.setup, setup);
    append_field(g_report.expectation, paper_expectation);
  }
}

void print_table(const std::string& title, const slim::Table& table) {
  if (!title.empty()) std::printf("%s\n", title.c_str());
  std::printf("%s\n", table.to_string().c_str());
  if (g_report_open) g_report.add_series(title, table);
}

void add_run(const std::string& label,
             const slim::sched::ScheduleResult& result) {
  if (g_report_open) {
    g_report.runs.push_back(slim::sched::to_run_record(result, label));
  }
}

std::string status_cell(const slim::sched::ScheduleResult& result) {
  return result.oom ? "OOM" : slim::format_percent(result.mfu);
}

}  // namespace slimbench
