#pragma once

// Attention context exchange (paper §4.2).
//
// With uniform slicing, the p devices active at one pipeline tick process p
// consecutive slice-stream positions, so their attention workloads form an
// arithmetic progression (later slices attend to more KV). The planner
// rebalances each tick's cohort by pairing the heaviest member with the
// lightest (Figure 8): the heavy device ships its query plus the excess
// half of its KV to the light device, which computes the partial attention
// and returns the output for an online-softmax merge. After pairing, every
// member of a pair carries exactly the pair's mean workload — the residual
// imbalance across pairs is at most one slice of KV.
//
// A cohort's loads depend only on its members' slice indices. Between the
// warm-up and the cool-down every device is active and the cohort at tick t
// equals the one at t - n, so the planner balances each distinct cohort
// shape once, at construction, and answers plan() from that memo.

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/flops.hpp"
#include "src/sched/builder.hpp"
#include "src/sched/schedule.hpp"
#include "src/util/csr.hpp"

namespace slim::core {

class ExchangePlanner final : public sched::ExchangeOracle {
 public:
  ExchangePlanner(const sched::PipelineSpec& spec);

  PassPlan plan(int device, std::int64_t stream, bool forward) const override;

  /// Attended-KV workload (tokens) of forward stream position `x`.
  double forward_load(std::int64_t x) const;

  /// Post-exchange attended-KV workload (tokens) of a pass — what the
  /// device actually computes after the rebalancing. Exposed for property
  /// tests ("the difference is at most one slice of key-value", §4.2.2).
  double balanced_kv_load(int device, std::int64_t stream, bool forward) const;

  /// Total bytes a device sends for the *forward* passes of one microbatch
  /// (the quantity bounded by Eq. 2), maximized over devices.
  double forward_volume_per_microbatch(int device) const;

 private:
  struct Move {
    int partner = -1;
    double kv_tokens = 0.0;  // > 0: this device sheds KV; < 0: absorbs
  };
  struct Balance {
    double kv_tokens = 0.0;       // balanced attended-KV workload
    std::span<const Move> moves;  // view into the memo
  };
  Balance balance(int device, std::int64_t stream, bool forward) const;

  /// Memo index of the cohort active at `tick`, or -1 when no stream is.
  std::int64_t shape_of(std::int64_t tick) const;
  /// Balances the cohort of `tick` and appends its memo entry: shapes are
  /// recorded in memo order (forward first, then ascending shape).
  void balance_shape(std::int64_t tick, bool forward);

  double load_of_stream(std::int64_t x, bool forward) const;

  int p_;
  int n_;
  int m_;
  bool adaptive_;
  double link_bandwidth_;
  double link_latency_;
  std::int64_t slice_len_;
  std::int64_t layers_per_stage_;
  double q_bytes_;             // one slice of Q (== O) per layer, per device
  double kv_bytes_per_token_;  // K+V bytes per token per layer, per device
  model::CostModel cost_;

  // Cohort-shape memo: per direction (forward first) and shape, the
  // cohort's mean load and each device's moves.
  bool steady_ = false;  // the pipeline has a full-cohort range
  std::int64_t num_shapes_ = 0;
  std::vector<double> shape_mean_;  // [dir][shape]
  Csr<Move> moves_;                 // row [dir][shape][device]
};

}  // namespace slim::core
