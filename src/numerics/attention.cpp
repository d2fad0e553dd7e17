#include "src/numerics/attention.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/numerics/arena.hpp"
#include "src/numerics/kernels.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::num {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Query rows per chunk: one tile. Rows are independent in the forward (each
// owns its own online-softmax state) so chunks write disjoint rows; the
// backward's dk/dv reductions keep per-chunk partials folded in chunk order.
constexpr std::int64_t kQueryGrain = simd::kTile;

util::ThreadPool& pool() { return util::ThreadPool::global(); }

/// One KV chunk by reference.
struct KvView {
  const Tensor& k;
  const Tensor& v;
  std::int64_t pos;
};
}  // namespace

namespace simd {

namespace {

/// mᵀ as doubles: out[c*m.rows() + j] = m(j, c). The score kernel reads it
/// one key block at a time.
void pack_transposed(const Tensor& m, double* out) {
  for (std::int64_t c = 0; c < m.cols(); ++c) {
    double* row = out + c * m.rows();
    for (std::int64_t j = 0; j < m.rows(); ++j) row[j] = m.at(j, c);
  }
}

/// Rows i0 .. i0+rows-1 of x as a transposed double tile: out[c*kTile + r]
/// = x(i0 + r, c), zero for the rows past `rows`.
void pack_tile(const Tensor& x, std::int64_t i0, std::int64_t rows,
               double* out) {
  for (std::int64_t c = 0; c < x.cols(); ++c) {
    for (std::int64_t r = 0; r < kTile; ++r) {
      out[c * kTile + r] = r < rows ? x.at(i0 + r, c) : 0.0;
    }
  }
}

/// Keys of a chunk at `pos` (kv long) visible to query rows i0 ..
/// i0+rows-1 at q_offset; 0 for the rows past `rows`. Returns the largest.
std::int64_t visible_keys(std::int64_t q_offset, std::int64_t i0,
                          std::int64_t rows, std::int64_t pos,
                          std::int64_t kv, std::int64_t* visible) {
  std::int64_t hi = 0;
  for (std::int64_t r = 0; r < kTile; ++r) {
    visible[r] = r < rows ? std::clamp<std::int64_t>(
                                q_offset + i0 + r - pos + 1, 0, kv)
                          : 0;
    hi = std::max(hi, visible[r]);
  }
  return hi;
}

/// Streamed forward: each query tile runs over every chunk and folds the
/// chunk's partial into its running rows in place, with the merge kernel.
AttnPartial streamed_forward(Isa isa, const Tensor& q,
                             const std::vector<KvView>& chunks,
                             std::int64_t q_offset, float scale) {
  const std::int64_t s = q.rows(), dk = q.cols();
  const std::int64_t d = chunks.empty() ? q.cols() : chunks[0].v.cols();
  std::int64_t total_keys = 0, max_keys = 0;
  for (const KvView& chunk : chunks) {
    SLIM_CHECK(q.cols() == chunk.k.cols(), "q/k head-dim mismatch");
    SLIM_CHECK(chunk.k.rows() == chunk.v.rows(), "k/v length mismatch");
    SLIM_CHECK(chunk.v.cols() == d, "chunk value widths differ");
    total_keys += chunk.k.rows();
    max_keys = std::max(max_keys, chunk.k.rows());
  }
  AttnPartial acc;
  acc.out = Tensor(s, d);
  acc.m.assign(static_cast<std::size_t>(s), kNegInf);
  acc.l.assign(static_cast<std::size_t>(s), 0.0f);

  const Kernels& kern = kernels(isa);
  // Every chunk's Kᵀ, packed once for all query tiles, back to back.
  WorkspaceLease<double> kt(dk * total_keys);
  std::int64_t packed = 0;
  for (const KvView& chunk : chunks) {
    pack_transposed(chunk.k, kt.data() + packed);
    packed += dk * chunk.k.rows();
  }

  pool().parallel_for(0, s, kQueryGrain, [&](std::int64_t i0,
                                             std::int64_t i1) {
    const std::int64_t rows = i1 - i0;
    // Tile scratch from this worker's reusable workspace: every slot a
    // kernel reads is written first, so no zeroing is needed (the partial
    // output is zeroed per chunk: accumulate adds into it).
    WorkspaceLease<double> qt(dk * kTile);
    WorkspaceLease<float> w(max_keys * kTile);
    WorkspaceLease<float> part(kTile * d);
    pack_tile(q, i0, rows, qt.data());
    const double* chunk_kt = kt.data();
    for (const KvView& chunk : chunks) {
      const std::int64_t kv = chunk.k.rows();
      const double* ktc = chunk_kt;
      chunk_kt += dk * kv;
      std::int64_t visible[kTile];
      const std::int64_t keys =
          visible_keys(q_offset, i0, rows, chunk.pos, kv, visible);
      if (keys == 0) continue;
      kern.scores(qt.data(), ktc, kv, dk, keys, scale, w.data());
      float m[kTile], l[kTile];
      kern.softmax(w.data(), keys, visible, m, l);
      std::fill(part.data(), part.data() + rows * d, 0.0f);
      kern.accumulate(w.data(), visible, rows, chunk.v.data(), d, d,
                      part.data(), d);
      for (std::int64_t r = 0; r < rows; ++r) {
        if (visible[r] == 0) continue;
        float* out = part.data() + r * d;
        const float inv_l = 1.0f / l[r];
        for (std::int64_t c = 0; c < d; ++c) out[c] *= inv_l;
      }
      kern.merge(acc.out.data() + i0 * d, acc.m.data() + i0,
                 acc.l.data() + i0, part.data(), m, l, rows, d);
    }
  });
  return acc;
}

}  // namespace

AttnPartial attn_partial(Isa isa, const Tensor& q, const Tensor& k,
                         const Tensor& v, std::int64_t q_offset,
                         std::int64_t k_offset, float scale) {
  return streamed_forward(isa, q, {{k, v, k_offset}}, q_offset, scale);
}

AttnPartial attn_streamed(Isa isa, const Tensor& q,
                          const std::vector<KvChunk>& chunks,
                          std::int64_t q_offset, float scale) {
  std::vector<KvView> views;
  views.reserve(chunks.size());
  for (const KvChunk& chunk : chunks) {
    views.push_back({chunk.k, chunk.v, chunk.pos});
  }
  return streamed_forward(isa, q, views, q_offset, scale);
}

}  // namespace simd

AttnPartial attn_partial(const Tensor& q, const Tensor& k, const Tensor& v,
                         std::int64_t q_offset, std::int64_t k_offset,
                         float scale) {
  return simd::attn_partial(simd::active_isa(), q, k, v, q_offset, k_offset,
                            scale);
}

AttnPartial attn_merge(const AttnPartial& a, const AttnPartial& b) {
  SLIM_CHECK(a.q_len() == b.q_len() && a.out.cols() == b.out.cols(),
             "merge shape mismatch");
  const std::int64_t s = a.q_len(), d = a.out.cols();
  const simd::Kernels& kern = simd::kernels(simd::active_isa());
  AttnPartial out = a;
  pool().parallel_for(0, s, kQueryGrain, [&](std::int64_t i0,
                                             std::int64_t i1) {
    kern.merge(out.out.data() + i0 * d, out.m.data() + i0, out.l.data() + i0,
               b.out.data() + i0 * d, b.m.data() + i0, b.l.data() + i0,
               i1 - i0, d);
  });
  return out;
}

Tensor attn_reference(const Tensor& q, const Tensor& k, const Tensor& v,
                      std::int64_t q_offset, float scale) {
  return attn_partial(q, k, v, q_offset, /*k_offset=*/0, scale).out;
}

void attn_reference_bwd(const Tensor& q, const Tensor& k, const Tensor& v,
                        std::int64_t q_offset, float scale, const Tensor& dout,
                        Tensor& dq, Tensor& dk, Tensor& dv) {
  const std::int64_t s = q.rows(), kv = k.rows(), d = v.cols();
  dq = Tensor(q.rows(), q.cols());
  dk = Tensor(k.rows(), k.cols());
  dv = Tensor(v.rows(), v.cols());
  for (std::int64_t i = 0; i < s; ++i) {
    const std::int64_t visible =
        std::clamp<std::int64_t>(q_offset + i + 1, 0, kv);
    if (visible == 0) continue;
    std::vector<float> p(static_cast<std::size_t>(visible));
    float m = kNegInf;
    for (std::int64_t j = 0; j < visible; ++j) {
      double dot = 0.0;
      for (std::int64_t c = 0; c < q.cols(); ++c) {
        dot += static_cast<double>(q.at(i, c)) * k.at(j, c);
      }
      p[static_cast<std::size_t>(j)] = static_cast<float>(dot) * scale;
      m = std::max(m, p[static_cast<std::size_t>(j)]);
    }
    double l = 0.0;
    for (std::int64_t j = 0; j < visible; ++j) {
      p[static_cast<std::size_t>(j)] =
          simd::exp(p[static_cast<std::size_t>(j)] - m);
      l += p[static_cast<std::size_t>(j)];
    }
    for (std::int64_t j = 0; j < visible; ++j) {
      p[static_cast<std::size_t>(j)] /= static_cast<float>(l);
    }
    // dp_j = dout_i . v_j ; rowsum = sum_j p_j dp_j
    double rowsum = 0.0;
    std::vector<float> dp(static_cast<std::size_t>(visible));
    for (std::int64_t j = 0; j < visible; ++j) {
      double dot = 0.0;
      for (std::int64_t c = 0; c < d; ++c) {
        dot += static_cast<double>(dout.at(i, c)) * v.at(j, c);
      }
      dp[static_cast<std::size_t>(j)] = static_cast<float>(dot);
      rowsum += p[static_cast<std::size_t>(j)] * dot;
    }
    for (std::int64_t j = 0; j < visible; ++j) {
      const float pj = p[static_cast<std::size_t>(j)];
      const float ds =
          pj * (dp[static_cast<std::size_t>(j)] - static_cast<float>(rowsum)) *
          scale;
      for (std::int64_t c = 0; c < q.cols(); ++c) {
        dq.at(i, c) += ds * k.at(j, c);
        dk.at(j, c) += ds * q.at(i, c);
      }
      for (std::int64_t c = 0; c < d; ++c) {
        dv.at(j, c) += pj * dout.at(i, c);
      }
    }
  }
}

AttnPartial attn_streamed(const Tensor& q, const std::vector<KvChunk>& chunks,
                          std::int64_t q_offset, float scale) {
  return simd::attn_streamed(simd::active_isa(), q, chunks, q_offset, scale);
}

namespace simd {

void attn_streamed_bwd(Isa isa, const Tensor& q,
                       const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks) {
  SLIM_CHECK(dk_chunks.size() == chunks.size() &&
                 dv_chunks.size() == chunks.size(),
             "gradient chunk buffers must match chunk count");
  const std::int64_t s = q.rows(), d = fwd.out.cols();
  dq = Tensor(q.rows(), q.cols());
  const Kernels& kern = kernels(isa);
  // D_i = dout_i . out_i — the flash-attention rowsum shortcut that spares
  // a second pass over all chunks. Workspace-leased: every slot is written
  // by the parallel pass before any chunk loop reads it. The tile's rows
  // run side by side, each summing in ascending c.
  WorkspaceLease<float> D(s);
  pool().parallel_for(0, s, kQueryGrain,
                      [&](std::int64_t i0, std::int64_t i1) {
    double sum[kTile] = {};
    for (std::int64_t c = 0; c < d; ++c) {
      for (std::int64_t i = i0; i < i1; ++i) {
        sum[i - i0] += static_cast<double>(dout.at(i, c)) * fwd.out.at(i, c);
      }
    }
    for (std::int64_t i = i0; i < i1; ++i) {
      D[i] = static_cast<float>(sum[i - i0]);
    }
  });

  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const KvChunk& chunk = chunks[ci];
    Tensor& dk = dk_chunks[ci];
    Tensor& dv = dv_chunks[ci];
    SLIM_CHECK(dk.rows() == chunk.k.rows() && dv.rows() == chunk.v.rows(),
               "chunk gradient shape mismatch");
    const std::int64_t kv = chunk.k.rows();
    const std::int64_t kc = chunk.k.cols(), vc = chunk.v.cols();
    SLIM_CHECK(vc == d, "chunk value width must match the output's");
    WorkspaceLease<double> kt(kc * kv);
    WorkspaceLease<double> vt(vc * kv);
    pack_transposed(chunk.k, kt.data());
    pack_transposed(chunk.v, vt.data());
    // dq rows are disjoint across query chunks; dk/dv reduce over query
    // rows, so each query chunk accumulates into its own partial slab and
    // the slabs fold in ascending chunk order below — the thread-count
    // independent combine. The slabs live in the CALLER's workspace (one
    // lease instead of 2*n_qchunks fresh tensors); workers zero their own
    // disjoint slab before accumulating into it.
    const std::int64_t n_qchunks = util::chunk_count(0, s, kQueryGrain);
    WorkspaceLease<float> dk_partials(n_qchunks * kv * kc);
    WorkspaceLease<float> dv_partials(n_qchunks * kv * vc);
    pool().parallel_for(0, s, kQueryGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
      const std::int64_t qc = i0 / kQueryGrain;
      float* dkp = dk_partials.data() + qc * kv * kc;
      float* dvp = dv_partials.data() + qc * kv * vc;
      std::memset(dkp, 0, static_cast<std::size_t>(kv * kc) * sizeof(float));
      std::memset(dvp, 0, static_cast<std::size_t>(kv * vc) * sizeof(float));
      const std::int64_t rows = i1 - i0;
      // Rows without visible keys anywhere (l == 0) take no part.
      std::int64_t visible[kTile];
      visible_keys(q_offset, i0, rows, chunk.pos, kv, visible);
      float m[kTile] = {}, inv_l[kTile] = {}, Dr[kTile] = {};
      std::int64_t keys = 0;
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::size_t i = static_cast<std::size_t>(i0 + r);
        if (fwd.l[i] == 0.0f) visible[r] = 0;
        if (visible[r] == 0) continue;
        m[r] = fwd.m[i];
        inv_l[r] = 1.0f / fwd.l[i];
        Dr[r] = D[i0 + r];
        keys = std::max(keys, visible[r]);
      }
      if (keys == 0) return;
      // Scaled scores into p, dout . v into ds (double dots), then the
      // probabilities and score gradients of the tile.
      WorkspaceLease<double> xt(std::max(kc, d) * kTile);
      WorkspaceLease<float> tiles(2 * keys * kTile);
      float* p = tiles.data();
      float* ds = p + keys * kTile;
      pack_tile(q, i0, rows, xt.data());
      kern.scores(xt.data(), kt.data(), kv, kc, keys, scale, p);
      pack_tile(dout, i0, rows, xt.data());
      kern.scores(xt.data(), vt.data(), kv, d, keys, 1.0f, ds);
      kern.probs(p, ds, keys, m, inv_l, Dr, scale);
      kern.accumulate(ds, visible, rows, chunk.k.data(), kc, kc,
                      dq.data() + i0 * kc, kc);
      kern.rank1(ds, visible, rows, q.data() + i0 * kc, kc, kc, dkp, kc);
      kern.rank1(p, visible, rows, dout.data() + i0 * d, d, d, dvp, vc);
    });
    for (std::int64_t qc = 0; qc < n_qchunks; ++qc) {
      kern.add(dk.data(), dk_partials.data() + qc * kv * kc, kv * kc);
      kern.add(dv.data(), dv_partials.data() + qc * kv * vc, kv * vc);
    }
  }
}

}  // namespace simd

void attn_streamed_bwd(const Tensor& q, const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks) {
  simd::attn_streamed_bwd(simd::active_isa(), q, chunks, q_offset, scale, fwd,
                          dout, dq, dk_chunks, dv_chunks);
}

}  // namespace slim::num
