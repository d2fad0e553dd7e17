#pragma once

// The static gate entered from per-device programs.
//
// check_schedule is what sched::compile runs before building any graph: it
// validates the spec, lowers the programs to the tabular IR (ir::lower) and
// returns the verification engine's findings (verify.hpp), with the
// caller's in-flight cap declared on the table. Rules:
//
//   sched-spec     PipelineSpec::validate() failure (nothing else runs)
//   ir-structure   wrong program count, pass indices out of range
//   verify-*       causality, deadlock (incl. backward-before-forward and
//                  weight-before-input orderings), progress (forward and
//                  backward multiplicity), memory certificate (incl. the
//                  declared in-flight cap) — see verify.hpp

#include <vector>

#include "src/analysis/findings.hpp"
#include "src/sched/schedule.hpp"

namespace slim::analysis {

struct ScheduleLintOptions {
  /// Declared per-device cap on simultaneously-live activation units (one
  /// unit = one (microbatch, slice, chunk) forward). <= 0 disables the cap.
  double max_inflight_units = 0.0;
};

std::vector<Finding> check_schedule(
    const sched::PipelineSpec& spec,
    const std::vector<sched::DeviceProgram>& programs,
    const ScheduleLintOptions& options = {});

}  // namespace slim::analysis
