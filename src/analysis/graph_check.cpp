#include "src/analysis/graph_check.hpp"

#include <cmath>
#include <sstream>
#include <string>

#include "src/memory/category.hpp"

namespace slim::analysis {

namespace {

using sim::Op;
using sim::OpClass;
using sim::OpGraph;
using sim::OpId;

/// Cap on reported findings per rule, to keep a badly broken graph's report
/// readable.
constexpr std::size_t kMaxFindingsPerRule = 8;
/// Absolute slack, in bytes, for the per-(device, category) conservation
/// rule (covers float cancellation of ZB-V's split frees).
constexpr double kBalanceToleranceBytes = 16.0;

std::string op_location(const Op& op) {
  std::ostringstream out;
  out << "op " << op.id << " (dev " << op.device;
  if (op.microbatch >= 0) out << " mb " << op.microbatch;
  if (op.slice >= 0) out << " slice " << op.slice;
  if (op.stage >= 0) out << " stage " << op.stage;
  out << ")";
  return out.str();
}

/// Rate-limited reporter for one rule.
class RuleReport {
 public:
  RuleReport(std::vector<Finding>& findings, const char* rule)
      : findings_(findings), rule_(rule) {}

  void operator()(const std::string& location, const std::string& message) {
    if (reported_++ < kMaxFindingsPerRule) {
      findings_.push_back({Severity::Error, rule_, location, message});
    }
  }

 private:
  std::vector<Finding>& findings_;
  const char* rule_;
  std::size_t reported_ = 0;
};

void check_resource_order(const OpGraph& graph,
                          std::vector<Finding>& findings) {
  const auto& ops = graph.ops();
  std::vector<int> seen(ops.size(), 0);
  RuleReport report(findings, "graph-resource-order");
  const auto& programs = graph.programs();
  for (std::size_t r = 0; r < programs.size(); ++r) {
    OpId prev = sim::kInvalidOp;
    for (const OpId id : programs[r]) {
      if (id < 0 || static_cast<std::size_t>(id) >= ops.size()) {
        report("resource " + std::to_string(r),
               "program lists op id " + std::to_string(id) +
                   " which does not exist");
        continue;
      }
      const Op& op = graph.op(id);
      ++seen[static_cast<std::size_t>(id)];
      if (op.resource != static_cast<sim::ResId>(r)) {
        report(op_location(op),
               "listed in the program of resource " + std::to_string(r) +
                   " but assigned to resource " + std::to_string(op.resource));
      }
      if (prev != sim::kInvalidOp && id <= prev) {
        report(op_location(op),
               "program of resource " + std::to_string(r) +
                   " is not in insertion order (op " + std::to_string(prev) +
                   " precedes it)");
      }
      prev = id;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] != 1) {
      report(op_location(graph.op(static_cast<OpId>(i))),
             "appears " + std::to_string(seen[i]) +
                 " times across resource programs (expected once)");
    }
  }
}

/// Per-(device, category) running sums of the MemDelta bytes.
struct Ledger {
  std::vector<double> balance;    // indexed [device][category], flattened
  std::vector<double> magnitude;  // sum of |bytes|, for the relative slack

  void add(const sim::MemDelta& delta) {
    const std::size_t slot =
        static_cast<std::size_t>(delta.device) * mem::kNumCategories +
        static_cast<std::size_t>(delta.category);
    if (slot >= balance.size()) {
      balance.resize(slot + 1, 0.0);
      magnitude.resize(slot + 1, 0.0);
    }
    balance[slot] += delta.bytes;
    magnitude[slot] += std::abs(delta.bytes);
  }

  void check(std::vector<Finding>& findings) const {
    RuleReport report(findings, "graph-mem-balance");
    for (std::size_t slot = 0; slot < balance.size(); ++slot) {
      // Scale-aware slack: exact cancellation is not guaranteed when a
      // slice's bytes are freed in split fractions (ZB-V).
      const double tolerance = kBalanceToleranceBytes + 1e-9 * magnitude[slot];
      if (std::abs(balance[slot]) <= tolerance) continue;
      const std::size_t dev = slot / mem::kNumCategories;
      const int cat = static_cast<int>(slot % mem::kNumCategories);
      std::ostringstream msg;
      msg << mem::category_name(cat) << " on device " << dev << " ends the "
          << "iteration at " << balance[slot]
          << " bytes instead of zero: the ledger leaks "
          << (balance[slot] > 0 ? "allocations" : "frees");
      report("dev " + std::to_string(dev), msg.str());
    }
  }
};

/// Vocabulary-op census gathered during the op pass.
struct VocabOps {
  std::int64_t forwards = 0, backwards = 0;
  const Op* first = nullptr;          // first explicit vocab op
  const Op* misplaced = nullptr;      // first one off the last stage's device
};

void check_vocab_ops(const VocabOps& vocab, const sched::PipelineSpec& spec,
                     int last_device, std::vector<Finding>& findings) {
  if (spec.vocab_parallel) {
    if (vocab.first != nullptr) {
      findings.push_back(
          {Severity::Error, "graph-vocab-ops", op_location(*vocab.first),
           "explicit vocabulary op in a vocab-parallel schedule (the "
           "sharded output layer folds into every device's passes)"});
    }
    return;
  }
  if (vocab.misplaced != nullptr) {
    std::ostringstream msg;
    msg << "vocabulary op on device " << vocab.misplaced->device
        << "; without vocabulary parallelism the output layer lives on "
        << "the last stage's device " << last_device;
    findings.push_back({Severity::Error, "graph-vocab-ops",
                        op_location(*vocab.misplaced), msg.str()});
  }
  const std::int64_t expected = static_cast<std::int64_t>(spec.m) * spec.n;
  if (vocab.forwards != expected || vocab.backwards != expected) {
    std::ostringstream msg;
    msg << "expected " << expected << " vocabulary forward and backward "
        << "ops (one per microbatch per slice), found " << vocab.forwards
        << " forward / " << vocab.backwards << " backward";
    findings.push_back(
        {Severity::Error, "graph-vocab-ops", "graph", msg.str()});
  }
}

std::vector<Finding> run_checks(const OpGraph& graph,
                                const sched::PipelineSpec* spec) {
  std::vector<Finding> findings;
  int last_device = -1;
  if (spec != nullptr) {
    const sched::StageLayout layout = spec->stage_layout();
    last_device = layout.device_of(layout.num_stages() - 1);
  }

  // One pass over the ops: dependency ids, ledger sums, vocab census.
  const OpId num_ops = static_cast<OpId>(graph.ops().size());
  RuleReport dep_report(findings, "graph-dep-range");
  RuleReport mem_report(findings, "graph-mem-balance");
  Ledger ledger;
  VocabOps vocab;
  for (const Op& op : graph.ops()) {
    for (const OpId dep : op.deps) {
      if (dep >= 0 && dep < num_ops && dep != op.id) continue;
      dep_report(op_location(op),
                 "dependency id " + std::to_string(dep) + " is " +
                     (dep == op.id ? "a self-dependency" : "out of range"));
    }
    for (const sim::MemDelta& delta : op.mem) {
      if (delta.device < 0 || delta.category < 0 ||
          delta.category >= mem::kNumCategories) {
        mem_report(op_location(op),
                   "memory delta with an invalid device or category");
        continue;
      }
      ledger.add(delta);
    }
    if (op.cls == OpClass::VocabForward || op.cls == OpClass::VocabBackward) {
      ++(op.cls == OpClass::VocabForward ? vocab.forwards : vocab.backwards);
      if (vocab.first == nullptr) vocab.first = &op;
      if (op.device != last_device && vocab.misplaced == nullptr) {
        vocab.misplaced = &op;
      }
    }
  }
  ledger.check(findings);
  check_resource_order(graph, findings);
  if (spec != nullptr) check_vocab_ops(vocab, *spec, last_device, findings);
  return findings;
}

}  // namespace

std::vector<Finding> check_graph(const OpGraph& graph) {
  return run_checks(graph, nullptr);
}

std::vector<Finding> check_graph(const OpGraph& graph,
                                 const sched::PipelineSpec& spec) {
  return run_checks(graph, &spec);
}

}  // namespace slim::analysis
