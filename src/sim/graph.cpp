#include "src/sim/graph.hpp"

#include <utility>

namespace slim::sim {

bool is_compute_class(OpClass cls) {
  switch (cls) {
    case OpClass::Forward:
    case OpClass::Backward:
    case OpClass::BackwardInput:
    case OpClass::BackwardWeight:
    case OpClass::Recompute:
    case OpClass::VocabForward:
    case OpClass::VocabBackward:
    case OpClass::Optimizer:
      return true;
    default:
      return false;
  }
}

const char* op_class_name(OpClass cls) {
  switch (cls) {
    case OpClass::Forward: return "forward";
    case OpClass::Backward: return "backward";
    case OpClass::BackwardInput: return "backward_input";
    case OpClass::BackwardWeight: return "backward_weight";
    case OpClass::Recompute: return "recompute";
    case OpClass::VocabForward: return "vocab_forward";
    case OpClass::VocabBackward: return "vocab_backward";
    case OpClass::Optimizer: return "optimizer";
    case OpClass::Send: return "send";
    case OpClass::ExchangeSend: return "exchange_send";
    case OpClass::Collective: return "collective";
    case OpClass::Other: return "other";
  }
  return "unknown";
}

OpGraph::OpGraph(Topology topology) : topology_(topology) {}

void OpGraph::reserve(std::size_t ops, std::size_t deps, std::size_t mem) {
  ops_.reserve(ops);
  deps_.reserve(deps);
  mem_.reserve(mem);
}

ResId OpGraph::intern_resource(std::int64_t key) {
  // Keys: compute streams [0, w), channels [w, w + 8 w^2), PCIe links after.
  const std::int64_t w = topology_.world_size();
  SLIM_CHECK(key >= 0 && key < w + 8 * w * w + w, "resource out of range");
  const auto k = static_cast<std::size_t>(key);
  if (k >= resource_index_.size()) resource_index_.resize(k + 1, -1);
  if (resource_index_[k] < 0) {
    resource_index_[k] = static_cast<ResId>(resource_count_++);
    programs_.emplace_back();
  }
  return resource_index_[k];
}

ResId OpGraph::compute_resource(int device) { return intern_resource(device); }

ResId OpGraph::channel_resource(int src, int dst, int lane) {
  SLIM_CHECK(src != dst, "channel requires distinct endpoints");
  SLIM_CHECK(lane >= 0 && lane < 8, "lane out of range");
  const std::int64_t w = topology_.world_size();
  const std::int64_t pair = static_cast<std::int64_t>(src) * w + dst;
  return intern_resource(w + pair * 8 + lane);
}

ResId OpGraph::pcie_resource(int device) {
  const std::int64_t w = topology_.world_size();
  return intern_resource(w + w * w * 8 + device);
}

OpId OpGraph::add_op(ResId resource, int device, double duration,
                     OpClass cls, std::initializer_list<OpId> deps) {
  const auto id = static_cast<OpId>(ops_.size());
  ops_.push_back({.id = id, .resource = resource, .duration = duration,
                  .cls = cls, .device = device});
  programs_[static_cast<std::size_t>(resource)].push_back(id);
  for (const OpId dep : deps) add_dep(id, dep);
  return id;
}

OpId OpGraph::add_compute(int device, double duration, OpClass cls,
                          std::initializer_list<OpId> deps) {
  SLIM_CHECK(duration >= 0.0, "negative op duration");
  return add_op(compute_resource(device), device, duration, cls, deps);
}

OpId OpGraph::add_on_resource(ResId resource, int device, double duration,
                              OpClass cls, std::initializer_list<OpId> deps) {
  SLIM_CHECK(duration >= 0.0, "negative op duration");
  SLIM_CHECK(resource >= 0 &&
                 static_cast<std::size_t>(resource) < resource_count_,
             "resource out of range");
  return add_op(resource, device, duration, cls, deps);
}

OpId OpGraph::add_transfer(int src, int dst, double bytes, OpClass cls,
                           std::initializer_list<OpId> deps, int lane) {
  const OpId id = add_op(channel_resource(src, dst, lane), src,
                         topology_.p2p_time(src, dst, bytes), cls, deps);
  Op& op = ops_.back();
  op.peer = dst;
  op.bytes = bytes;
  return id;
}

void OpGraph::add_dep(OpId id, OpId dep) {
  static_cast<void>(op(id));  // range check
  deps_.append(static_cast<std::size_t>(id), dep);
}

void OpGraph::add_mem(OpId id, MemDelta delta) {
  static_cast<void>(op(id));  // range check
  mem_.append(static_cast<std::size_t>(id), delta);
}

void OpGraph::set_tag(OpId id, std::int32_t microbatch, std::int32_t slice,
                      std::int32_t stage) {
  Op& o = op(id);
  o.microbatch = microbatch;
  o.slice = slice;
  o.stage = stage;
}

Op& OpGraph::op(OpId id) {
  return const_cast<Op&>(std::as_const(*this).op(id));
}

const Op& OpGraph::op(OpId id) const {
  SLIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
             "op id out of range");
  return ops_[static_cast<std::size_t>(id)];
}

}  // namespace slim::sim
