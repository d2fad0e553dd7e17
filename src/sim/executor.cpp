#include "src/sim/executor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/util/csr.hpp"
#include "src/util/logging.hpp"

namespace slim::sim {

double ExecResult::bubble_fraction(int device) const {
  if (makespan <= 0.0) return 0.0;
  SLIM_CHECK(device >= 0 &&
                 static_cast<std::size_t>(device) < compute_busy.size(),
             "device out of range in bubble_fraction");
  const double busy = compute_busy[static_cast<std::size_t>(device)];
  return std::max(0.0, 1.0 - busy / makespan);
}

double ExecResult::mean_bubble_fraction(int num_devices) const {
  if (num_devices <= 0) return 0.0;
  double total = 0.0;
  for (int d = 0; d < num_devices; ++d) total += bubble_fraction(d);
  return total / num_devices;
}

ExecResult execute(const OpGraph& graph) {
  const std::vector<Op>& ops = graph.ops();
  const std::size_t n = ops.size();

  // Successors for Kahn's algorithm: each op's explicit dependents in op
  // order, then its program-order successor (the implicit edge to the next
  // op on its resource). An op's in-degree counts both kinds.
  const Csr<OpId> succ = build_csr<OpId>(n, [&](auto&& emit) {
    for (std::size_t i = 0; i < n; ++i) {
      for (const OpId dep : graph.deps(static_cast<OpId>(i))) {
        SLIM_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < n,
                   "dependency op id out of range");
        emit(static_cast<std::size_t>(dep), static_cast<OpId>(i));
      }
    }
    for (const auto& program : graph.programs()) {
      for (std::size_t i = 1; i < program.size(); ++i) {
        emit(static_cast<std::size_t>(program[i - 1]), program[i]);
      }
    }
  });
  std::vector<std::int32_t> indeg(n, 0);
  for (const OpId next : succ.items) ++indeg[static_cast<std::size_t>(next)];

  ExecResult result;
  result.timings.assign(n, OpTiming{});
  std::vector<double> resource_free(graph.num_resources(), 0.0);

  std::vector<OpId> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<OpId>(i));
  }

  std::size_t processed = 0;
  // Kahn's algorithm. Start times are fully determined by deps + resource
  // availability, so processing order within the ready set does not matter.
  while (!ready.empty()) {
    const OpId id = ready.back();
    ready.pop_back();
    const Op& op = ops[static_cast<std::size_t>(id)];

    double start = resource_free[static_cast<std::size_t>(op.resource)];
    for (const OpId dep : graph.deps(id)) {
      start = std::max(start, result.timings[static_cast<std::size_t>(dep)].end);
    }
    // Program-order predecessor is covered by resource_free because ops on a
    // resource are processed in program order (the implicit edge guarantees
    // the predecessor was finalized first).
    OpTiming& t = result.timings[static_cast<std::size_t>(id)];
    t.start = start;
    t.end = start + op.duration;
    resource_free[static_cast<std::size_t>(op.resource)] = t.end;
    result.makespan = std::max(result.makespan, t.end);
    ++processed;

    for (const OpId next : succ.row(static_cast<std::size_t>(id))) {
      if (--indeg[static_cast<std::size_t>(next)] == 0) ready.push_back(next);
    }
  }

  if (processed != n) {
    std::ostringstream msg;
    msg << "schedule deadlock: " << (n - processed)
        << " ops unreachable; first blocked ops:";
    int shown = 0;
    for (const Op& op : ops) {
      if (indeg[static_cast<std::size_t>(op.id)] > 0 && shown < 5) {
        msg << " [op " << op.id << " dev " << op.device << " mb "
            << op.microbatch << " slice " << op.slice << " stage " << op.stage
            << "]";
        ++shown;
      }
    }
    throw std::logic_error(msg.str());
  }

  // Per-device compute busy time.
  int max_device = -1;
  for (const Op& op : ops) max_device = std::max(max_device, op.device);
  result.compute_busy.assign(static_cast<std::size_t>(max_device + 1), 0.0);
  for (const Op& op : ops) {
    if (is_compute_class(op.cls)) {
      result.compute_busy[static_cast<std::size_t>(op.device)] += op.duration;
    }
  }
  return result;
}

}  // namespace slim::sim
