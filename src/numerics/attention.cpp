#include "src/numerics/attention.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/numerics/arena.hpp"
#include "src/numerics/kernels.hpp"
#include "src/util/thread_pool.hpp"

namespace slim::num {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Query rows per chunk. Rows are independent in the forward (each owns its
// own online-softmax state) so chunks write disjoint rows; the backward's
// dk/dv reductions keep per-chunk partials folded in chunk order.
constexpr std::int64_t kQueryGrain = 8;

util::ThreadPool& pool() { return util::ThreadPool::global(); }
}

namespace simd {

namespace {

/// mᵀ as doubles, keys padded to `keys_padded` with zeros: out[c*keys_padded
/// + j] = m(j, c). The attention dots read it one vector of keys at a time.
void pack_transposed(const Tensor& m, std::int64_t keys_padded, double* out) {
  for (std::int64_t c = 0; c < m.cols(); ++c) {
    double* row = out + c * keys_padded;
    for (std::int64_t j = 0; j < m.rows(); ++j) row[j] = m.at(j, c);
    for (std::int64_t j = m.rows(); j < keys_padded; ++j) row[j] = 0.0;
  }
}

}  // namespace

AttnPartial attn_partial(Isa isa, const Tensor& q, const Tensor& k,
                         const Tensor& v, std::int64_t q_offset,
                         std::int64_t k_offset, float scale) {
  SLIM_CHECK(q.cols() == k.cols(), "q/k head-dim mismatch");
  SLIM_CHECK(k.rows() == v.rows(), "k/v length mismatch");
  const std::int64_t s = q.rows(), kv = k.rows(), dk = q.cols(),
                     d = v.cols();
  AttnPartial part;
  part.out = Tensor(s, d);
  part.m.assign(static_cast<std::size_t>(s), kNegInf);
  part.l.assign(static_cast<std::size_t>(s), 0.0f);

  const Kernels& kern = kernels(isa);
  const std::int64_t kvp = padded_keys(kv);
  WorkspaceLease<double> kt(dk * kvp);
  pack_transposed(k, kvp, kt.data());

  pool().parallel_for(0, s, kQueryGrain, [&](std::int64_t i0,
                                             std::int64_t i1) {
    // Score-row scratch from this worker's reusable workspace: every slot
    // the row reads is written first, so no zeroing is needed.
    WorkspaceLease<float> scores(kvp);
    for (std::int64_t i = i0; i < i1; ++i) {
      const std::int64_t visible =
          std::clamp<std::int64_t>(q_offset + i - k_offset + 1, 0, kv);
      if (visible == 0) continue;
      // Row scores (double dots, vectorized across keys) and max.
      kern.dots(q.data() + i * dk, kt.data(), kvp, dk, padded_keys(visible),
                scale, scores.data());
      float m = kNegInf;
      for (std::int64_t j = 0; j < visible; ++j) m = std::max(m, scores[j]);
      double l = 0.0;
      for (std::int64_t j = 0; j < visible; ++j) {
        const float w = std::exp(scores[j] - m);
        l += w;
        scores[j] = w;
      }
      float* out = part.out.data() + i * d;
      kern.accumulate(scores.data(), v.data(), d, visible, d, out);
      const float inv_l = 1.0f / static_cast<float>(l);
      for (std::int64_t c = 0; c < d; ++c) out[c] *= inv_l;
      part.m[static_cast<std::size_t>(i)] = m;
      part.l[static_cast<std::size_t>(i)] = static_cast<float>(l);
    }
  });
  return part;
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
  AttnPartial out;
  out.out = Tensor(s, d);
  out.m.assign(static_cast<std::size_t>(s), kNegInf);
  out.l.assign(static_cast<std::size_t>(s), 0.0f);
  pool().parallel_for(0, s, kQueryGrain, [&](std::int64_t i0,
                                             std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    const float la = a.l[si], lb = b.l[si];
    if (la == 0.0f && lb == 0.0f) continue;
    if (la == 0.0f) {
      out.m[si] = b.m[si];
      out.l[si] = lb;
      for (std::int64_t c = 0; c < d; ++c) out.out.at(i, c) = b.out.at(i, c);
      continue;
    }
    if (lb == 0.0f) {
      out.m[si] = a.m[si];
      out.l[si] = la;
      for (std::int64_t c = 0; c < d; ++c) out.out.at(i, c) = a.out.at(i, c);
      continue;
    }
    const float m = std::max(a.m[si], b.m[si]);
    const float wa = la * std::exp(a.m[si] - m);
    const float wb = lb * std::exp(b.m[si] - m);
    const float l = wa + wb;
    for (std::int64_t c = 0; c < d; ++c) {
      out.out.at(i, c) = (a.out.at(i, c) * wa + b.out.at(i, c) * wb) / l;
    }
    out.m[si] = m;
    out.l[si] = l;
  }
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
          std::exp(p[static_cast<std::size_t>(j)] - m);
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
  AttnPartial acc;
  acc.out = Tensor(q.rows(), chunks.empty() ? q.cols() : chunks[0].v.cols());
  acc.m.assign(static_cast<std::size_t>(q.rows()), kNegInf);
  acc.l.assign(static_cast<std::size_t>(q.rows()), 0.0f);
  bool first = true;
  for (const KvChunk& chunk : chunks) {
    AttnPartial part =
        attn_partial(q, chunk.k, chunk.v, q_offset, chunk.pos, scale);
    acc = first ? std::move(part) : attn_merge(acc, part);
    first = false;
  }
  return acc;
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
  // by the parallel pass before any chunk loop reads it.
  WorkspaceLease<float> D(s);
  pool().parallel_for(0, s, kQueryGrain,
                      [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double sum = 0.0;
      for (std::int64_t c = 0; c < d; ++c) {
        sum += static_cast<double>(dout.at(i, c)) * fwd.out.at(i, c);
      }
      D[i] = static_cast<float>(sum);
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
    const std::int64_t kvp = padded_keys(kv);
    WorkspaceLease<double> kt(kc * kvp);
    WorkspaceLease<double> vt(vc * kvp);
    pack_transposed(chunk.k, kvp, kt.data());
    pack_transposed(chunk.v, kvp, vt.data());
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
      // Per-key probabilities p and score gradients ds of one query row.
      WorkspaceLease<float> rows(2 * kvp);
      float* p = rows.data();
      float* ds = p + kvp;
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::size_t si = static_cast<std::size_t>(i);
        if (fwd.l[si] == 0.0f) continue;
        const std::int64_t visible =
            std::clamp<std::int64_t>(q_offset + i - chunk.pos + 1, 0, kv);
        if (visible == 0) continue;
        const float inv_l = 1.0f / fwd.l[si];
        const float* q_row = q.data() + i * kc;
        const float* dout_row = dout.data() + i * d;
        // Scaled scores into p, dout . v into ds (double dots).
        kern.dots(q_row, kt.data(), kvp, kc, padded_keys(visible), scale, p);
        kern.dots(dout_row, vt.data(), kvp, d, padded_keys(visible), 1.0f,
                  ds);
        for (std::int64_t j = 0; j < visible; ++j) {
          const float pj = std::exp(p[j] - fwd.m[si]) * inv_l;
          p[j] = pj;
          ds[j] = pj * (ds[j] - D[i]) * scale;
        }
        kern.accumulate(ds, chunk.k.data(), kc, visible, kc,
                        dq.data() + i * kc);
        kern.rank1(ds, q_row, visible, kc, dkp, kc);
        kern.rank1(p, dout_row, visible, d, dvp, vc);
      }
    });
    for (std::int64_t qc = 0; qc < n_qchunks; ++qc) {
      const float* dkp = dk_partials.data() + qc * kv * kc;
      const float* dvp = dv_partials.data() + qc * kv * vc;
      for (std::int64_t e = 0; e < kv * kc; ++e) dk.data()[e] += dkp[e];
      for (std::int64_t e = 0; e < kv * vc; ++e) dv.data()[e] += dvp[e];
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
