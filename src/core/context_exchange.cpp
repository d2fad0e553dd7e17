#include "src/core/context_exchange.hpp"

#include <algorithm>
#include <vector>

#include "src/sched/builder.hpp"
#include "src/util/logging.hpp"

namespace slim::core {

ExchangePlanner::ExchangePlanner(const sched::PipelineSpec& spec)
    : p_(spec.p),
      n_(spec.n),
      m_(spec.m),
      adaptive_(spec.adaptive_exchange),
      slice_len_(spec.slice_len()),
      layers_per_stage_(spec.layers_per_stage()),
      cost_(spec.cfg, spec.gpu, sched::pipeline_topology(spec), spec.shard,
            spec.policy, spec.cp_mode) {
  SLIM_CHECK(spec.n % spec.p == 0, "context exchange expects n % p == 0");
  // The closed-form rebalancing below books every slice at slice_len =
  // seq / n tokens with kv_prefix = slice * slice_len. That is exact for
  // uniform layouts and a sub-slice approximation for the *derived*
  // token-uniform family (remainder slices differ by one alignment unit —
  // noise at this planner's byte/time scale). Custom elastic layouts must
  // not reach this planner (PipelineSpec::validate rejects them).
  SLIM_CHECK(spec.layouts.empty() || spec.uniform_slices(),
             "context exchange requires uniform equal-length slices");
  const double shard_div =
      static_cast<double>(spec.shard.t) * static_cast<double>(spec.shard.c);
  q_bytes_ = static_cast<double>(slice_len_) *
             static_cast<double>(spec.cfg.hidden) * 2.0 / shard_div *
             static_cast<double>(layers_per_stage_);
  kv_bytes_per_token_ = 2.0 * static_cast<double>(spec.cfg.kv_hidden()) * 2.0 /
                        shard_div * static_cast<double>(layers_per_stage_);
  const sim::Topology topo = sched::pipeline_topology(spec);
  const int neighbor = spec.p > 1 ? 1 : 0;
  link_bandwidth_ = spec.p > 1 ? topo.bandwidth(0, neighbor) : 1.0;
  link_latency_ = spec.p > 1 ? topo.latency(0, neighbor) : 0.0;

  if (p_ <= 1) return;
  // Shapes: warm-up ticks [0, p-1), then — when the pipeline has a tick at
  // which all p devices are active — n steady ticks [p-1, p-1+n) standing
  // for every tick up to n*m-1, then cool-down ticks [n*m, n*m+p-1).
  // Without a steady range each of the n*m+p-1 ticks is its own shape.
  const std::int64_t total = static_cast<std::int64_t>(n_) * m_;
  steady_ = total - 1 >= p_ + n_ - 2;
  num_shapes_ = steady_ ? 2 * (p_ - 1) + n_ : total + p_ - 1;
  const std::size_t slots = 2 * static_cast<std::size_t>(num_shapes_);
  shape_mean_.reserve(slots);
  moves_.start.reserve(slots * static_cast<std::size_t>(p_) + 1);
  const std::int64_t steady_end = p_ - 1 + n_;
  for (const bool forward : {true, false}) {
    for (std::int64_t shape = 0; shape < num_shapes_; ++shape) {
      balance_shape(!steady_ || shape < steady_end
                        ? shape
                        : total + (shape - steady_end),
                    forward);
    }
  }
}

std::int64_t ExchangePlanner::shape_of(std::int64_t tick) const {
  const std::int64_t total = static_cast<std::int64_t>(n_) * m_;
  if (tick < 0 || tick > total + p_ - 2) return -1;
  if (!steady_ || tick < p_ - 1) return tick;
  if (tick < total) return p_ - 1 + (tick - (p_ - 1)) % n_;
  return p_ - 1 + n_ + (tick - total);
}

double ExchangePlanner::forward_load(std::int64_t x) const {
  const std::int64_t slice = x % n_;
  return model::CostModel::causal_kv_equiv(slice_len_, slice * slice_len_);
}

double ExchangePlanner::load_of_stream(std::int64_t x, bool forward) const {
  if (forward) return forward_load(x);
  // Backward streams consume slices in reverse order within a microbatch.
  const std::int64_t slice = n_ - 1 - (x % n_);
  return model::CostModel::causal_kv_equiv(slice_len_, slice * slice_len_);
}

void ExchangePlanner::balance_shape(std::int64_t tick, bool forward) {
  // Pipeline tick: forwards flow first-to-last (device i processes stream
  // tick - i), backwards last-to-first (device i processes tick - (p-1-i)).
  const std::int64_t total = static_cast<std::int64_t>(n_) * m_;
  struct Member {
    int device;
    double load;
  };
  std::vector<Member> cohort;
  cohort.reserve(static_cast<std::size_t>(p_));
  for (int i = 0; i < p_; ++i) {
    const std::int64_t x = forward ? tick - i : tick - (p_ - 1 - i);
    if (x < 0 || x >= total) continue;  // warm-up / cool-down: inactive
    cohort.push_back({i, load_of_stream(x, forward)});
  }
  std::vector<std::vector<Move>> device_moves(static_cast<std::size_t>(p_));
  double mean = 0.0;
  if (cohort.size() >= 2) {
    // Global-mean balancing with a two-pointer transfer plan: the heaviest
    // member sheds its surplus to the lightest members (a device may thus
    // exchange with several partners, as in Figure 8 where one light
    // device absorbs two KV blocks). One pass records both sides of every
    // transfer, so each member's moves keep the order a per-device pass
    // would produce.
    std::stable_sort(cohort.begin(), cohort.end(),
                     [](const Member& a, const Member& b) {
                       return a.load < b.load;
                     });
    for (const Member& m : cohort) mean += m.load;
    mean /= static_cast<double>(cohort.size());

    std::size_t lo = 0, hi = cohort.size() - 1;
    double deficit = mean - cohort[lo].load;
    double surplus = cohort[hi].load - mean;
    bool any = false;
    while (lo < hi) {
      const double moved = std::min(deficit, surplus);
      if (moved >= 1.0) {  // below one token: not worth exchanging
        const int heavy = cohort[hi].device, light = cohort[lo].device;
        device_moves[static_cast<std::size_t>(heavy)].push_back(
            {light, moved});
        device_moves[static_cast<std::size_t>(light)].push_back(
            {heavy, -moved});
        any = true;
      }
      deficit -= moved;
      surplus -= moved;
      if (deficit <= 1e-9) {
        ++lo;
        if (lo < hi) deficit = mean - cohort[lo].load;
      }
      if (surplus <= 1e-9 && lo < hi) {
        --hi;
        if (lo < hi) surplus = cohort[hi].load - mean;
      }
    }
    if (any && adaptive_) {
      // All-or-nothing cohort decision: skip the exchange when shipping
      // the surplus costs more time than the straggler it removes.
      const double max_load = cohort.back().load;
      double surplus_tokens = 0.0;
      for (const Member& member : cohort) {
        surplus_tokens += std::max(0.0, member.load - mean);
      }
      // The byte payloads carry the per-stage layer factor; scale the saved
      // compute identically. Early launch hides roughly half the transfer
      // behind the previous pass, hence the 2x allowance.
      const double saved =
          static_cast<double>(layers_per_stage_) *
          (cost_.attn_block_time(static_cast<double>(slice_len_), max_load,
                                 forward) -
           cost_.attn_block_time(static_cast<double>(slice_len_), mean,
                                 forward));
      const double comm =
          (q_bytes_ + surplus_tokens * kv_bytes_per_token_) /
              link_bandwidth_ +
          link_latency_;
      if (comm > 2.0 * saved) {
        for (std::vector<Move>& moves : device_moves) moves.clear();
      }
    }
  }
  shape_mean_.push_back(mean);
  for (const std::vector<Move>& moves : device_moves) {
    moves_.items.insert(moves_.items.end(), moves.begin(), moves.end());
    moves_.start.push_back(static_cast<std::uint32_t>(moves_.items.size()));
  }
}

ExchangePlanner::Balance ExchangePlanner::balance(int device,
                                                  std::int64_t stream,
                                                  bool forward) const {
  // A device without moves (inactive, alone, balanced already or skipped
  // by the adaptive rule) keeps its own load; one with moves carries the
  // cohort mean.
  Balance out;
  out.kv_tokens = load_of_stream(stream, forward);
  if (p_ <= 1) return out;
  const std::int64_t tick =
      forward ? stream + device : stream + (p_ - 1 - device);
  const std::int64_t shape = shape_of(tick);
  if (shape < 0) return out;
  const std::size_t slot =
      (forward ? 0 : static_cast<std::size_t>(num_shapes_)) +
      static_cast<std::size_t>(shape);
  const std::size_t row =
      slot * static_cast<std::size_t>(p_) + static_cast<std::size_t>(device);
  out.moves = moves_.row(row);
  if (!out.moves.empty()) out.kv_tokens = shape_mean_[slot];
  return out;
}

double ExchangePlanner::balanced_kv_load(int device, std::int64_t stream,
                                         bool forward) const {
  return balance(device, stream, forward).kv_tokens;
}

ExchangePlanner::PassPlan ExchangePlanner::plan(int device,
                                                std::int64_t stream,
                                                bool forward) const {
  const Balance bal = balance(device, stream, forward);
  PassPlan plan;
  plan.attn_time = cost_.attn_block_time(static_cast<double>(slice_len_),
                                         bal.kv_tokens, forward);
  const double dir = forward ? 1.0 : 2.0;  // gradients roughly double it
  for (const Move& move : bal.moves) {
    Exchange ex;
    ex.partner = move.partner;
    if (move.kv_tokens > 0.0) {
      // Heavy side: sends Q + the excess KV, receives the partial output.
      ex.send_bytes = dir * (q_bytes_ + move.kv_tokens * kv_bytes_per_token_);
      ex.recv_bytes = dir * q_bytes_;
    } else {
      ex.send_bytes = dir * q_bytes_;
      ex.recv_bytes =
          dir * (q_bytes_ + (-move.kv_tokens) * kv_bytes_per_token_);
    }
    plan.exchanges.push_back(ex);
  }
  return plan;
}

double ExchangePlanner::forward_volume_per_microbatch(int device) const {
  double bytes = 0.0;
  // Streams of microbatch 1 (a steady-state microbatch when m >= 3).
  const int mb = std::min(1, m_ - 1);
  for (int s = 0; s < n_; ++s) {
    const std::int64_t stream = static_cast<std::int64_t>(mb) * n_ + s;
    for (const Exchange& ex : plan(device, stream, true).exchanges) {
      bytes += ex.send_bytes;
    }
  }
  return bytes;
}

}  // namespace slim::core
