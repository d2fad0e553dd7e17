#pragma once

// Dependency graph of simulated operations.
//
// Every op runs on exactly one *resource* (a GPU compute stream or a directed
// communication channel). Ops assigned to the same resource execute strictly
// in the order they were added (program order); across resources, execution
// is constrained only by explicit dependencies. This models a set of CUDA
// streams plus point-to-point links.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

#include "src/sim/topology.hpp"
#include "src/util/csr.hpp"

namespace slim::sim {

using OpId = std::int32_t;
using ResId = std::int32_t;

inline constexpr OpId kInvalidOp = -1;

/// Broad classification used for tracing and bubble accounting.
enum class OpClass : std::uint8_t {
  Forward,         // forward pass of a slice through the local layers
  Backward,        // full backward (input+weight)
  BackwardInput,   // ZB-V style input-gradient-only backward
  BackwardWeight,  // ZB-V style weight-gradient-only backward
  Recompute,       // checkpoint recomputation
  VocabForward,    // output-layer GEMM + loss
  VocabBackward,
  Optimizer,
  Send,            // activation/gradient P2P
  ExchangeSend,    // context-exchange traffic
  Collective,      // TP/CP/EP internal collective (folded into compute here)
  Other,
};

bool is_compute_class(OpClass cls);

/// Stable lower-case name of an op class ("forward", "exchange_send", ...);
/// shared by the trace exporters and metrics reports.
const char* op_class_name(OpClass cls);

/// Memory ledger entry attached to an op; positive bytes allocate, negative
/// free. Applied on the simulated timeline at the op's start or end.
struct MemDelta {
  int device = 0;
  int category = 0;  // slim::mem::Category, kept as int to avoid a dep cycle
  double bytes = 0.0;
  bool at_end = false;  // false: applied at op start; true: at op end
};

struct Op {
  OpId id = kInvalidOp;
  ResId resource = -1;
  double duration = 0.0;
  OpClass cls = OpClass::Other;

  /// Device whose timeline this op belongs to for tracing/bubble accounting
  /// (for comm ops: the sender).
  int device = 0;

  /// Transfer metadata (comm ops only): receiving device and payload size.
  /// Kept on the op so traces and metrics can report volumes without
  /// re-deriving them from durations.
  int peer = -1;
  double bytes = 0.0;

  // Trace metadata.
  std::int32_t microbatch = -1;
  std::int32_t slice = -1;
  std::int32_t stage = -1;
};
static_assert(std::is_trivially_copyable_v<Op>);

/// Builder/owner of the op DAG plus the resource table. Ops are plain
/// records in one array; their dependencies and memory deltas live in
/// graph-owned CSR tables (AppendCsr: the first read after a write folds).
class OpGraph {
 public:
  explicit OpGraph(Topology topology);

  const Topology& topology() const { return topology_; }

  /// Pre-sizes storage for `ops` ops, `deps` edges and `mem` deltas.
  void reserve(std::size_t ops, std::size_t deps, std::size_t mem);

  /// Resource representing the compute stream of `device`.
  ResId compute_resource(int device);

  /// Resource for the directed channel device `src` -> `dst`. `lane`
  /// separates independent traffic classes (forward activations, backward
  /// gradients, context exchange) the way distinct communicators/streams
  /// do: FIFO within a lane, independent across lanes.
  ResId channel_resource(int src, int dst, int lane = 0);

  /// Resource of `device`'s PCIe link (host offload traffic).
  ResId pcie_resource(int device);

  /// Adds a compute op on `device` with the given duration.
  OpId add_compute(int device, double duration, OpClass cls,
                   std::initializer_list<OpId> deps);

  /// Adds a P2P transfer of `bytes` from `src` to `dst`; duration is derived
  /// from the topology. Returns the op to depend on for arrival.
  ///
  /// Every transfer occupies the pairwise (src, dst, lane) channel, over
  /// NVLink within a node and the NIC across nodes. Per-link FIFO order then
  /// matches both endpoints' program order, which keeps arbitrary schedules
  /// deadlock-free by construction; a device sending to several remote peers
  /// at once does not share its NIC port (DESIGN.md, "known modeling
  /// limits").
  OpId add_transfer(int src, int dst, double bytes, OpClass cls,
                    std::initializer_list<OpId> deps, int lane = 0);

  /// Adds an op on an explicit resource (e.g. a PCIe copy engine).
  OpId add_on_resource(ResId resource, int device, double duration,
                       OpClass cls, std::initializer_list<OpId> deps);

  /// Appends `dep` to the dependencies of `op`.
  void add_dep(OpId op, OpId dep);

  /// Attaches a memory delta to an existing op.
  void add_mem(OpId op, MemDelta delta);

  /// Tags trace metadata on an existing op.
  void set_tag(OpId op, std::int32_t microbatch, std::int32_t slice,
               std::int32_t stage);

  const std::vector<Op>& ops() const { return ops_; }
  Op& op(OpId id);
  const Op& op(OpId id) const;

  /// Dependencies / memory deltas of a valid op, in insertion order.
  std::span<const OpId> deps(OpId id) const {
    return deps_.row(static_cast<std::size_t>(id), ops_.size());
  }
  std::span<const MemDelta> mem(OpId id) const {
    return mem_.row(static_cast<std::size_t>(id), ops_.size());
  }

  std::size_t num_resources() const { return resource_count_; }

  /// Per-resource program order (op ids in insertion order).
  const std::vector<std::vector<OpId>>& programs() const { return programs_; }

 private:
  OpId add_op(ResId resource, int device, double duration, OpClass cls,
              std::initializer_list<OpId> deps);
  ResId intern_resource(std::int64_t key);

  Topology topology_;
  std::vector<Op> ops_;
  AppendCsr<OpId> deps_;
  AppendCsr<MemDelta> mem_;
  std::vector<std::vector<OpId>> programs_;
  std::size_t resource_count_ = 0;
  std::vector<ResId> resource_index_;  // key -> resource, -1 when unused
};

}  // namespace slim::sim
