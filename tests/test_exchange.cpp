// Tests for the attention context-exchange planner (paper §4.2): cohort
// balancing, partner symmetry, juncture behaviour and Eq. 2's volume bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/context_exchange.hpp"
#include "src/core/slice.hpp"
#include "src/model/transformer.hpp"
#include "src/sched/builder.hpp"

namespace slim::core {
namespace {

sched::PipelineSpec make_spec(int p, int n, int m,
                              std::int64_t seq = 64 * 1024) {
  sched::PipelineSpec spec;
  spec.cfg = model::llama13b();
  spec.gpu = model::hopper80();
  spec.shard = {8, 1, 1, 8};
  spec.policy = model::CheckpointPolicy::None;
  spec.p = p;
  spec.v = 1;
  spec.m = m;
  spec.n = n;
  spec.seq = seq;
  spec.retain_kv = true;
  return spec;
}

struct ExchangeCase {
  int p;
  int n;
  int m;
};

class PlannerTest : public ::testing::TestWithParam<ExchangeCase> {};

// In any steady-state cohort, paired devices end with the pair's mean load;
// across the cohort the post-exchange spread is at most one slice of KV
// (paper §4.2.2).
TEST_P(PlannerTest, BalancesWithinOneSlice) {
  const ExchangeCase c = GetParam();
  const auto spec = make_spec(c.p, c.n, c.m);
  const ExchangePlanner planner(spec);
  const double slice_tokens = static_cast<double>(spec.slice_len());
  const std::int64_t total = static_cast<std::int64_t>(c.n) * c.m;

  for (std::int64_t tick = c.p; tick < total; ++tick) {
    double lo = 1e30, hi = -1e30;
    for (int dev = 0; dev < c.p; ++dev) {
      const std::int64_t stream = tick - dev;
      if (stream < 0 || stream >= total) continue;
      const double load = planner.balanced_kv_load(dev, stream, true);
      lo = std::min(lo, load);
      hi = std::max(hi, load);
    }
    EXPECT_LE(hi - lo, slice_tokens + 1.0)
        << "tick " << tick << " spread too large";
  }
}

// If device a sheds KV to device b, then b's plan contains the mirrored
// exchange (a sends Q+KV and receives O; b the reverse).
TEST_P(PlannerTest, PartnerSymmetry) {
  const ExchangeCase c = GetParam();
  if (c.p < 2) return;
  const auto spec = make_spec(c.p, c.n, c.m);
  const ExchangePlanner planner(spec);
  const std::int64_t total = static_cast<std::int64_t>(c.n) * c.m;
  for (std::int64_t tick = 0; tick < total + c.p; ++tick) {
    for (int dev = 0; dev < c.p; ++dev) {
      const std::int64_t stream = tick - dev;
      if (stream < 0 || stream >= total) continue;
      const auto plan = planner.plan(dev, stream, true);
      for (const auto& ex : plan.exchanges) {
        const std::int64_t partner_stream = tick - ex.partner;
        ASSERT_GE(partner_stream, 0);
        ASSERT_LT(partner_stream, total);
        const auto mirror = planner.plan(ex.partner, partner_stream, true);
        bool found = false;
        for (const auto& mex : mirror.exchanges) {
          if (mex.partner != dev) continue;
          found = true;
          EXPECT_NEAR(mex.send_bytes, ex.recv_bytes, 1.0);
          EXPECT_NEAR(mex.recv_bytes, ex.send_bytes, 1.0);
        }
        EXPECT_TRUE(found) << "no mirrored exchange for dev " << dev
                           << " at tick " << tick;
      }
    }
  }
}

TEST_P(PlannerTest, WarmupCohortsDegradeGracefully) {
  const ExchangeCase c = GetParam();
  const auto spec = make_spec(c.p, c.n, c.m);
  const ExchangePlanner planner(spec);
  // Stream 0 on device 0 runs alone (tick 0): no partner, own load.
  const auto plan = planner.plan(0, 0, true);
  EXPECT_TRUE(plan.exchanges.empty());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlannerTest,
                         ::testing::Values(ExchangeCase{2, 4, 2},
                                           ExchangeCase{4, 8, 2},
                                           ExchangeCase{4, 16, 3},
                                           ExchangeCase{8, 16, 2},
                                           ExchangeCase{8, 32, 2},
                                           ExchangeCase{3, 9, 2}));

TEST(PlannerEq2Test, ForwardVolumeWithinBound) {
  // Eq. 2: exchanged context per microbatch per device is bounded by
  // (2 - (p-1)/n) L M_h — our per-device send volume must respect it.
  for (const ExchangeCase c :
       {ExchangeCase{4, 8, 3}, ExchangeCase{4, 16, 3}, ExchangeCase{8, 16, 3},
        ExchangeCase{8, 32, 3}, ExchangeCase{2, 8, 3}}) {
    const auto spec = make_spec(c.p, c.n, c.m);
    const ExchangePlanner planner(spec);
    const double m_h = model::embedding_bytes(spec.cfg, spec.shard, spec.seq);
    const double kv_ratio = static_cast<double>(spec.cfg.kv_hidden()) /
                            static_cast<double>(spec.cfg.hidden);
    const double bound = exchange_volume_bound(
        c.p, c.n, spec.cfg.layers, m_h, kv_ratio);
    for (int dev = 0; dev < c.p; ++dev) {
      const double volume = planner.forward_volume_per_microbatch(dev);
      EXPECT_LE(volume, bound * 1.05)
          << "p=" << c.p << " n=" << c.n << " dev=" << dev;
    }
    // And the bound itself obeys the closed-form cap 2 L M_h.
    EXPECT_LE(bound,
              (2.0 - static_cast<double>(c.p - 1) / c.n) *
                      static_cast<double>(spec.cfg.layers) * m_h / c.p *
                      static_cast<double>(c.p) +
                  1.0);
  }
}

TEST(PlannerLoadTest, ForwardLoadIsArithmetic) {
  const auto spec = make_spec(4, 8, 2);
  const ExchangePlanner planner(spec);
  const double len = static_cast<double>(spec.slice_len());
  for (int s = 0; s < 8; ++s) {
    EXPECT_NEAR(planner.forward_load(s), s * len + (len + 1.0) / 2.0, 1e-6);
  }
  // Microbatch juncture: stream n has slice 0's load again.
  EXPECT_NEAR(planner.forward_load(8), planner.forward_load(0), 1e-9);
}

TEST(PlannerBackwardTest, BackwardStreamsReverseSlices) {
  const auto spec = make_spec(4, 8, 2);
  const ExchangePlanner planner(spec);
  // Backward stream 0 is slice n-1 (heaviest); the planner must therefore
  // balance it downward in a full cohort.
  const auto early = planner.plan(3, 3, /*forward=*/false);
  const auto solo = planner.plan(3, 0, /*forward=*/false);
  EXPECT_LT(early.attn_time, solo.attn_time + 1e-12);
}

// ---- memo exactness: the planner against a per-call oracle ----
//
// The oracle is the planner's original algorithm, recomputed from scratch
// for every (device, stream, direction): gather the tick's cohort, sort it
// by load, run the two-pointer transfer plan and keep the calling device's
// moves, then apply the adaptive all-or-nothing decision. The planner
// balances each cohort shape once; its answers must equal the oracle's bit
// for bit, including warm-up/cool-down ticks, m = 1 (no steady state) and
// streams outside [0, n*m).
class OracleExchange {
 public:
  explicit OracleExchange(const sched::PipelineSpec& spec)
      : p_(spec.p),
        n_(spec.n),
        m_(spec.m),
        adaptive_(spec.adaptive_exchange),
        slice_len_(spec.slice_len()),
        layers_per_stage_(spec.layers_per_stage()),
        cost_(spec.cfg, spec.gpu, sched::pipeline_topology(spec), spec.shard,
              spec.policy, spec.cp_mode) {
    const double shard_div =
        static_cast<double>(spec.shard.t) * static_cast<double>(spec.shard.c);
    q_bytes_ = static_cast<double>(slice_len_) *
               static_cast<double>(spec.cfg.hidden) * 2.0 / shard_div *
               static_cast<double>(layers_per_stage_);
    kv_bytes_per_token_ = 2.0 * static_cast<double>(spec.cfg.kv_hidden()) *
                          2.0 / shard_div *
                          static_cast<double>(layers_per_stage_);
    const sim::Topology topo = sched::pipeline_topology(spec);
    link_bandwidth_ = spec.p > 1 ? topo.bandwidth(0, 1) : 1.0;
    link_latency_ = spec.p > 1 ? topo.latency(0, 1) : 0.0;
  }

  struct Move {
    int partner;
    double kv_tokens;
  };
  struct Balance {
    double kv_tokens = 0.0;
    std::vector<Move> moves;
  };

  double load_of_stream(std::int64_t x, bool forward) const {
    const std::int64_t slice = forward ? x % n_ : n_ - 1 - (x % n_);
    return model::CostModel::causal_kv_equiv(slice_len_, slice * slice_len_);
  }

  Balance balance_cohort(int device, std::int64_t stream,
                         bool forward) const {
    Balance out;
    out.kv_tokens = load_of_stream(stream, forward);
    if (p_ <= 1) return out;
    const std::int64_t tick =
        forward ? stream + device : stream + (p_ - 1 - device);
    const std::int64_t total = static_cast<std::int64_t>(n_) * m_;
    struct Member {
      int device;
      double load;
    };
    std::vector<Member> cohort;
    for (int i = 0; i < p_; ++i) {
      const std::int64_t x = forward ? tick - i : tick - (p_ - 1 - i);
      if (x < 0 || x >= total) continue;
      cohort.push_back({i, load_of_stream(x, forward)});
    }
    if (cohort.size() < 2) return out;
    std::stable_sort(cohort.begin(), cohort.end(),
                     [](const Member& a, const Member& b) {
                       return a.load < b.load;
                     });
    double mean = 0.0;
    for (const Member& m : cohort) mean += m.load;
    mean /= static_cast<double>(cohort.size());
    std::size_t lo = 0, hi = cohort.size() - 1;
    double deficit = mean - cohort[lo].load;
    double surplus = cohort[hi].load - mean;
    while (lo < hi) {
      const double moved = std::min(deficit, surplus);
      if (moved >= 1.0) {
        if (cohort[hi].device == device) {
          out.moves.push_back({cohort[lo].device, moved});
        } else if (cohort[lo].device == device) {
          out.moves.push_back({cohort[hi].device, -moved});
        }
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
    if (out.moves.empty()) return out;
    if (adaptive_) {
      const double max_load = cohort.back().load;
      double surplus_tokens = 0.0;
      for (const Member& member : cohort) {
        surplus_tokens += std::max(0.0, member.load - mean);
      }
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
        out.moves.clear();
        return out;
      }
    }
    out.kv_tokens = mean;
    return out;
  }

  sched::ExchangeOracle::PassPlan plan(int device, std::int64_t stream,
                                       bool forward) const {
    const Balance bal = balance_cohort(device, stream, forward);
    sched::ExchangeOracle::PassPlan plan;
    plan.attn_time = cost_.attn_block_time(static_cast<double>(slice_len_),
                                           bal.kv_tokens, forward);
    const double dir = forward ? 1.0 : 2.0;
    for (const Move& move : bal.moves) {
      sched::ExchangeOracle::Exchange ex;
      ex.partner = move.partner;
      if (move.kv_tokens > 0.0) {
        ex.send_bytes =
            dir * (q_bytes_ + move.kv_tokens * kv_bytes_per_token_);
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

 private:
  int p_, n_, m_;
  bool adaptive_;
  std::int64_t slice_len_;
  std::int64_t layers_per_stage_;
  double q_bytes_ = 0.0;
  double kv_bytes_per_token_ = 0.0;
  double link_bandwidth_ = 1.0;
  double link_latency_ = 0.0;
  model::CostModel cost_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PlannerMemoTest, BitEqualToPerCallOracle) {
  std::int64_t exchanges_seen = 0, skipped_seen = 0;
  for (const int p : {2, 3, 4, 8}) {
    for (const int n : {p, 2 * p}) {
      for (const int m : {1, 2, 5}) {
        for (const bool adaptive : {false, true}) {
          // One rank per node (NIC links, where the adaptive rule skips
          // some cohorts) and two per node (NVLink).
          for (const std::int64_t t : {8, 4}) {
            sched::PipelineSpec spec = make_spec(p, n, m);
            spec.shard = {t, 1, 1, 8};
            spec.adaptive_exchange = adaptive;
            const ExchangePlanner planner(spec);
            const OracleExchange oracle(spec);
            const std::int64_t total = static_cast<std::int64_t>(n) * m;
            for (int dev = 0; dev < p; ++dev) {
              for (std::int64_t stream = -p - 1; stream < total + p + 1;
                   ++stream) {
                for (const bool forward : {true, false}) {
                  SCOPED_TRACE(::testing::Message()
                               << "p=" << p << " n=" << n << " m=" << m
                               << " adaptive=" << adaptive << " t=" << t
                               << " dev=" << dev << " stream=" << stream
                               << " forward=" << forward);
                  // A negative forward stream has a negative slice index,
                  // which the cost model rejects; backward ones are valid.
                  if (forward && stream < 0) continue;
                  const auto want = oracle.plan(dev, stream, forward);
                  const auto got = planner.plan(dev, stream, forward);
                  ASSERT_EQ(bits(got.attn_time), bits(want.attn_time));
                  ASSERT_EQ(got.exchanges.size(), want.exchanges.size());
                  for (std::size_t i = 0; i < want.exchanges.size(); ++i) {
                    ASSERT_EQ(got.exchanges[i].partner,
                              want.exchanges[i].partner);
                    ASSERT_EQ(bits(got.exchanges[i].send_bytes),
                              bits(want.exchanges[i].send_bytes));
                    ASSERT_EQ(bits(got.exchanges[i].recv_bytes),
                              bits(want.exchanges[i].recv_bytes));
                  }
                  const auto bal = oracle.balance_cohort(dev, stream, forward);
                  ASSERT_EQ(bits(planner.balanced_kv_load(dev, stream,
                                                          forward)),
                            bits(bal.kv_tokens));
                  exchanges_seen +=
                      static_cast<std::int64_t>(want.exchanges.size());
                  if (adaptive && want.exchanges.empty() &&
                      bits(bal.kv_tokens) ==
                          bits(oracle.load_of_stream(stream, forward))) {
                    ++skipped_seen;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // The sweep must exercise real exchanges, not only trivial cohorts.
  EXPECT_GT(exchanges_seen, 0);
  EXPECT_GT(skipped_seen, 0);
}

}  // namespace
}  // namespace slim::core
