#include "src/numerics/rope.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "src/util/thread_pool.hpp"

namespace slim::num {

namespace {

// Elements per parallel chunk (whole rows): a slice's projection is
// rotated inline, long sequences in parallel.
constexpr std::int64_t kFlatGrain = 1 << 14;
// A first table covers this many positions (a 2048-token sequence).
constexpr std::int64_t kMinPositions = 2048;

/// cos and sin of pair i at position p: cs[p*d + 2i] and cs[p*d + 2i + 1].
struct Table {
  std::int64_t positions = 0;
  std::vector<float> cs;
  /// The table this one replaced. Readers may still hold it, so it is kept
  /// (and stays reachable) for the life of the process.
  const Table* older = nullptr;
};

/// One head dim's current table, in a list that only grows at its head.
struct Slot {
  Slot(std::int64_t d, Slot* next) : d(d), next(next) {}
  const std::int64_t d;
  std::atomic<const Table*> table{nullptr};
  Slot* const next;
};

std::atomic<Slot*> g_slots{nullptr};

Slot& slot_for(std::int64_t d) {
  Slot* head = g_slots.load(std::memory_order_acquire);
  for (;;) {
    for (Slot* s = head; s != nullptr; s = s->next) {
      if (s->d == d) return *s;
    }
    auto fresh = std::make_unique<Slot>(d, head);
    if (g_slots.compare_exchange_strong(head, fresh.get(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      return *fresh.release();
    }
    // Another slot went in first (head now holds it): search again.
  }
}

/// A table of `positions` rows: older's rows copied, the rest computed.
std::unique_ptr<Table> build(std::int64_t d, std::int64_t positions,
                             const Table* older) {
  auto t = std::make_unique<Table>();
  t->positions = positions;
  t->older = older;
  t->cs.resize(static_cast<std::size_t>(positions * d));
  const std::int64_t half = d / 2;
  std::vector<float> freq(static_cast<std::size_t>(half));
  for (std::int64_t i = 0; i < half; ++i) {
    freq[static_cast<std::size_t>(i)] =
        std::pow(kRopeBase, -2.0f * static_cast<float>(i) /
                                static_cast<float>(d));
  }
  std::int64_t p = 0;
  if (older != nullptr) {
    std::copy(older->cs.begin(), older->cs.end(), t->cs.begin());
    p = older->positions;
  }
  for (; p < positions; ++p) {
    const float pos = static_cast<float>(p);
    float* row = t->cs.data() + p * d;
    for (std::int64_t i = 0; i < half; ++i) {
      const float theta = pos * freq[static_cast<std::size_t>(i)];
      row[2 * i] = std::cos(theta);
      row[2 * i + 1] = std::sin(theta);
    }
  }
  return t;
}

/// A published table of head dim d covering positions [0, positions).
const Table& table_for(std::int64_t d, std::int64_t positions) {
  Slot& slot = slot_for(d);
  const Table* cur = slot.table.load(std::memory_order_acquire);
  while (cur == nullptr || cur->positions < positions) {
    const std::int64_t grown = std::max(
        {positions, kMinPositions, cur != nullptr ? 2 * cur->positions : 0});
    std::unique_ptr<Table> fresh = build(d, grown, cur);
    if (slot.table.compare_exchange_strong(cur, fresh.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return *fresh.release();
    }
    // Lost the race: cur now holds the winner's table, which may suffice.
  }
  return *cur;
}

util::ThreadPool& pool() { return util::ThreadPool::global(); }

void rotate(Tensor& x, std::int64_t pos_offset, std::int64_t d, float sign) {
  SLIM_CHECK(d % 2 == 0, "RoPE requires an even feature dimension");
  if (x.empty()) return;
  SLIM_CHECK(d > 0 && x.cols() % d == 0,
             "RoPE head dim must divide the row width");
  SLIM_CHECK(pos_offset >= 0, "RoPE positions must be non-negative");
  const Table& table = table_for(d, pos_offset + x.rows());
  const std::int64_t cols = x.cols();
  const std::int64_t grain = std::max<std::int64_t>(1, kFlatGrain / cols);
  pool().parallel_for(0, x.rows(), grain,
                      [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* cs = table.cs.data() + (pos_offset + r) * d;
      float* row = x.data() + r * cols;
      for (std::int64_t band = 0; band < cols; band += d) {
        for (std::int64_t i = 0; i < d / 2; ++i) {
          const float c = cs[2 * i], s = sign * cs[2 * i + 1];
          const float x0 = row[band + 2 * i], x1 = row[band + 2 * i + 1];
          row[band + 2 * i] = x0 * c - x1 * s;
          row[band + 2 * i + 1] = x0 * s + x1 * c;
        }
      }
    }
  });
}

}  // namespace

void rope_apply(Tensor& x, std::int64_t pos_offset) {
  rotate(x, pos_offset, x.cols(), 1.0f);
}

void rope_apply_bwd(Tensor& dx, std::int64_t pos_offset) {
  rotate(dx, pos_offset, dx.cols(), -1.0f);
}

void rope_apply(Tensor& x, std::int64_t pos_offset, std::int64_t head_dim) {
  rotate(x, pos_offset, head_dim, 1.0f);
}

void rope_apply_bwd(Tensor& dx, std::int64_t pos_offset,
                    std::int64_t head_dim) {
  rotate(dx, pos_offset, head_dim, -1.0f);
}

}  // namespace slim::num
