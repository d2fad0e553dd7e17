#pragma once

// Post-build graph lint.
//
// Runs on a built sim::OpGraph and checks the few properties the tabular
// IR cannot express (everything schedule-level — ordering, pairing,
// deadlock freedom, ledger dips — is certified before the build by
// verify_ir). One linear pass over the ops and the resource programs:
//
//   graph-dep-range       dependency op ids out of range / self-deps
//   graph-resource-order  op/program table inconsistency (an op missing from
//                         its resource's program, listed twice, or recorded
//                         out of insertion order)
//   graph-mem-balance     per (device, category), the summed MemDelta bytes
//                         of an iteration must return to zero (covers the
//                         logits and offload bytes the IR memory
//                         certificate leaves out)
//   graph-vocab-ops       explicit VocabForward/VocabBackward ops appear iff
//                         the spec does NOT use vocabulary parallelism (the
//                         parallel form folds them into every device's
//                         forward/backward), and only on the last stage's
//                         device (spec overload only)
//
// Dependency cycles are not looked for here: sim::execute throws a
// "schedule deadlock" error naming the blocked ops.

#include <vector>

#include "src/analysis/findings.hpp"
#include "src/sched/schedule.hpp"
#include "src/sim/graph.hpp"

namespace slim::analysis {

/// Structural rules only (no spec required).
std::vector<Finding> check_graph(const sim::OpGraph& graph);

/// Structural rules plus the spec-dependent vocabulary-op rule.
std::vector<Finding> check_graph(const sim::OpGraph& graph,
                                 const sched::PipelineSpec& spec);

}  // namespace slim::analysis
