// Bit-exact oracle tests for the vectorized kernels (src/numerics/kernels):
// every ISA variant the host supports must reproduce the scalar loops the
// kernels replaced byte for byte, over shapes that hit every vector/tail
// path. The oracles below are those scalar loops, kept verbatim in their
// arithmetic (fp32 ascending-k GEMM sums from +0; double attention dots;
// per-query-chunk dk/dv partials folded in chunk order). Attention's exp is
// the repository's own; the oracles use a scalar copy of it (oracle_exp),
// and the exp tests below pin that copy to simd::exp and to a correctly
// rounded reference. The SwiGLU kernels are held to the public scalar
// silu/silu_grad, which use the same exp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <string>
#include <vector>

#include "src/numerics/attention.hpp"
#include "src/numerics/kernels.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/tensor.hpp"
#include "src/util/rng.hpp"

namespace slim::num {
namespace {

using simd::Isa;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr std::int64_t kQueryGrain = 8;  // attention.cpp's query chunk

// ---- scalar oracles ---------------------------------------------------------

// A scalar copy of the repository exp (kernels.cpp's exp_impl): Cephes
// range reduction and polynomial, 2^n split in two normal powers.
float oracle_exp(float x) {
  float xc = x < -100.0f ? -100.0f : x;
  xc = xc > 100.0f ? 100.0f : xc;
  const float t = xc * 1.44269504088896341f + 12582912.0f;
  const float n = t - 12582912.0f;
  float r = xc - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  float p = r * 1.9875691500e-4f + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  std::uint32_t bits;
  std::memcpy(&bits, &t, sizeof bits);
  const std::uint32_t biased = bits - 0x4B400000u + 254u;
  const std::uint32_t a = (biased >> 1) << 23;
  const std::uint32_t b = (biased - (biased >> 1)) << 23;
  float scale_a, scale_b;
  std::memcpy(&scale_a, &a, sizeof a);
  std::memcpy(&scale_b, &b, sizeof b);
  const float e = p * scale_a * scale_b;
  return x < -0x1.5d589ep+6f ? 0.0f : e;
}

Tensor oracle_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a.at(i, kk);
      const float* brow = b.data() + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor oracle_matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  const std::int64_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float sum = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
  return c;
}

Tensor oracle_matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  const std::int64_t m = a.cols(), k = a.rows(), n = b.cols();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a.data() + kk * m;
    const float* brow = b.data() + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

AttnPartial oracle_attn_partial(const Tensor& q, const Tensor& k,
                                const Tensor& v, std::int64_t q_offset,
                                std::int64_t k_offset, float scale) {
  const std::int64_t s = q.rows(), kv = k.rows(), d = v.cols();
  AttnPartial part;
  part.out = Tensor(s, d);
  part.m.assign(static_cast<std::size_t>(s), kNegInf);
  part.l.assign(static_cast<std::size_t>(s), 0.0f);
  std::vector<float> scores(static_cast<std::size_t>(kv));
  for (std::int64_t i = 0; i < s; ++i) {
    const std::int64_t visible =
        std::clamp<std::int64_t>(q_offset + i - k_offset + 1, 0, kv);
    if (visible == 0) continue;
    float m = kNegInf;
    for (std::int64_t j = 0; j < visible; ++j) {
      double dot = 0.0;
      for (std::int64_t c = 0; c < q.cols(); ++c) {
        dot += static_cast<double>(q.at(i, c)) * k.at(j, c);
      }
      const float sc = static_cast<float>(dot) * scale;
      scores[static_cast<std::size_t>(j)] = sc;
      m = std::max(m, sc);
    }
    double l = 0.0;
    for (std::int64_t j = 0; j < visible; ++j) {
      const float w = oracle_exp(scores[static_cast<std::size_t>(j)] - m);
      l += w;
      for (std::int64_t c = 0; c < d; ++c) {
        part.out.at(i, c) += w * v.at(j, c);
      }
    }
    const float inv_l = 1.0f / static_cast<float>(l);
    for (std::int64_t c = 0; c < d; ++c) part.out.at(i, c) *= inv_l;
    part.m[static_cast<std::size_t>(i)] = m;
    part.l[static_cast<std::size_t>(i)] = static_cast<float>(l);
  }
  return part;
}

AttnPartial oracle_attn_merge(const AttnPartial& a, const AttnPartial& b) {
  const std::int64_t s = a.q_len(), d = a.out.cols();
  AttnPartial out;
  out.out = Tensor(s, d);
  out.m.assign(static_cast<std::size_t>(s), kNegInf);
  out.l.assign(static_cast<std::size_t>(s), 0.0f);
  for (std::int64_t i = 0; i < s; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    const float la = a.l[si], lb = b.l[si];
    if (la == 0.0f && lb == 0.0f) continue;
    const AttnPartial* only = la == 0.0f ? &b : lb == 0.0f ? &a : nullptr;
    if (only != nullptr) {
      out.m[si] = only->m[si];
      out.l[si] = only->l[si];
      for (std::int64_t c = 0; c < d; ++c) {
        out.out.at(i, c) = only->out.at(i, c);
      }
      continue;
    }
    const float m = std::max(a.m[si], b.m[si]);
    const float wa = la * oracle_exp(a.m[si] - m);
    const float wb = lb * oracle_exp(b.m[si] - m);
    const float l = wa + wb;
    for (std::int64_t c = 0; c < d; ++c) {
      out.out.at(i, c) = (a.out.at(i, c) * wa + b.out.at(i, c) * wb) / l;
    }
    out.m[si] = m;
    out.l[si] = l;
  }
  return out;
}

void oracle_attn_streamed_bwd(const Tensor& q,
                              const std::vector<KvChunk>& chunks,
                              std::int64_t q_offset, float scale,
                              const AttnPartial& fwd, const Tensor& dout,
                              Tensor& dq, std::vector<Tensor>& dk_chunks,
                              std::vector<Tensor>& dv_chunks) {
  const std::int64_t s = q.rows(), d = fwd.out.cols();
  dq = Tensor(q.rows(), q.cols());
  std::vector<float> D(static_cast<std::size_t>(s));
  for (std::int64_t i = 0; i < s; ++i) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < d; ++c) {
      sum += static_cast<double>(dout.at(i, c)) * fwd.out.at(i, c);
    }
    D[static_cast<std::size_t>(i)] = static_cast<float>(sum);
  }
  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const KvChunk& chunk = chunks[ci];
    Tensor& dk = dk_chunks[ci];
    Tensor& dv = dv_chunks[ci];
    const std::int64_t kv = chunk.k.rows();
    const std::int64_t kc = chunk.k.cols(), vc = chunk.v.cols();
    for (std::int64_t i0 = 0; i0 < s; i0 += kQueryGrain) {
      const std::int64_t i1 = std::min(s, i0 + kQueryGrain);
      std::vector<float> dkp(static_cast<std::size_t>(kv * kc), 0.0f);
      std::vector<float> dvp(static_cast<std::size_t>(kv * vc), 0.0f);
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::size_t si = static_cast<std::size_t>(i);
        if (fwd.l[si] == 0.0f) continue;
        const std::int64_t visible =
            std::clamp<std::int64_t>(q_offset + i - chunk.pos + 1, 0, kv);
        const float inv_l = 1.0f / fwd.l[si];
        for (std::int64_t j = 0; j < visible; ++j) {
          double dot = 0.0;
          for (std::int64_t c = 0; c < q.cols(); ++c) {
            dot += static_cast<double>(q.at(i, c)) * chunk.k.at(j, c);
          }
          const float pj =
              oracle_exp(static_cast<float>(dot) * scale - fwd.m[si]) * inv_l;
          double dpj = 0.0;
          for (std::int64_t c = 0; c < d; ++c) {
            dpj += static_cast<double>(dout.at(i, c)) * chunk.v.at(j, c);
          }
          const float ds = pj * (static_cast<float>(dpj) - D[si]) * scale;
          for (std::int64_t c = 0; c < q.cols(); ++c) {
            dq.at(i, c) += ds * chunk.k.at(j, c);
            dkp[static_cast<std::size_t>(j * kc + c)] += ds * q.at(i, c);
          }
          for (std::int64_t c = 0; c < d; ++c) {
            dvp[static_cast<std::size_t>(j * vc + c)] += pj * dout.at(i, c);
          }
        }
      }
      for (std::int64_t e = 0; e < kv * kc; ++e) {
        dk.data()[e] += dkp[static_cast<std::size_t>(e)];
      }
      for (std::int64_t e = 0; e < kv * vc; ++e) {
        dv.data()[e] += dvp[static_cast<std::size_t>(e)];
      }
    }
  }
}

// ---- helpers ----------------------------------------------------------------

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.size()) * sizeof(float)) ==
              0);
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Distance in units in the last place between two finite floats.
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float f) {
    std::int32_t i;
    std::memcpy(&i, &f, sizeof i);
    return i < 0 ? -static_cast<std::int64_t>(i & 0x7fffffff)
                 : static_cast<std::int64_t>(i);
  };
  return std::llabs(ordered(a) - ordered(b));
}

// 2^20 + 1 arguments at a fixed stride over [-87.5, 0]: every softmax
// argument is ≤ 0, and below about -87.34 the result is flushed to 0.
std::vector<float> exp_sweep() {
  constexpr int kSteps = 1 << 20;
  std::vector<float> xs;
  xs.reserve(kSteps + 1);
  for (int i = 0; i <= kSteps; ++i) {
    xs.push_back(static_cast<float>(-87.5 + 87.5 * i / kSteps));
  }
  return xs;
}

std::string shape_name(Isa isa, std::int64_t a, std::int64_t b,
                       std::int64_t c) {
  return std::string(simd::isa_name(isa)) + " " + std::to_string(a) + "x" +
         std::to_string(b) + "x" + std::to_string(c);
}

// ---- tests ------------------------------------------------------------------

TEST(KernelIsaTest, GenericAlwaysSupportedAndActiveIsWidest) {
  const std::vector<Isa> isas = simd::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::Generic);
  EXPECT_EQ(simd::active_isa(), isas.back());
}

TEST(KernelOracleTest, GemmVariantsBitExact) {
  Rng rng(41);
  for (Isa isa : simd::supported_isas()) {
    for (std::int64_t m : {1, 3, 4, 5, 17}) {
      for (std::int64_t n : {1, 7, 8, 9, 17, 33}) {
        for (std::int64_t k : {0, 1, 5, 64}) {
          const Tensor a = Tensor::randn(m, k, rng, 1.0f);
          const Tensor b = Tensor::randn(k, n, rng, 1.0f);
          EXPECT_TRUE(same_bytes(simd::matmul(isa, a, b),
                                 oracle_matmul(a, b)))
              << "matmul " << shape_name(isa, m, n, k);
          const Tensor bt = Tensor::randn(n, k, rng, 1.0f);
          EXPECT_TRUE(same_bytes(simd::matmul_nt(isa, a, bt),
                                 oracle_matmul_nt(a, bt)))
              << "matmul_nt " << shape_name(isa, m, n, k);
          const Tensor at = Tensor::randn(k, m, rng, 1.0f);
          EXPECT_TRUE(same_bytes(simd::matmul_tn(isa, at, b),
                                 oracle_matmul_tn(at, b)))
              << "matmul_tn " << shape_name(isa, m, n, k);
        }
      }
    }
  }
}

TEST(KernelOracleTest, PublicMatmulsUseAnExactVariant) {
  Rng rng(42);
  const Tensor a = Tensor::randn(37, 29, rng, 1.0f);
  const Tensor b = Tensor::randn(29, 45, rng, 1.0f);
  EXPECT_TRUE(same_bytes(matmul(a, b), oracle_matmul(a, b)));
  EXPECT_TRUE(same_bytes(matmul_nt(a, b.transposed()),
                         oracle_matmul_nt(a, b.transposed())));
  EXPECT_TRUE(same_bytes(matmul_tn(a.transposed(), b),
                         oracle_matmul_tn(a.transposed(), b)));
}

// Query/key placements: the first rows of a query block that starts before
// its keys see nothing (visible == 0); later ones see a growing prefix.
struct AttnPlacement {
  std::int64_t q_len;
  std::int64_t kv_len;
  std::int64_t q_offset;
  std::int64_t k_offset;
};

const AttnPlacement kPlacements[] = {
    {1, 1, 0, 0},    {3, 5, 4, 0}, {9, 13, 3, 5}, {17, 33, 40, 8},
    {8, 8, 0, 0},    {5, 9, 0, 3}, {7, 12, 2, 4},
};

TEST(KernelOracleTest, AttnPartialBitExact) {
  Rng rng(43);
  const float scale = 0.37f;
  for (Isa isa : simd::supported_isas()) {
    for (std::int64_t d : {1, 7, 8, 9, 16, 17, 33}) {
      for (const AttnPlacement& p : kPlacements) {
        const Tensor q = Tensor::randn(p.q_len, d, rng, 1.0f);
        const Tensor k = Tensor::randn(p.kv_len, d, rng, 1.0f);
        const Tensor v = Tensor::randn(p.kv_len, d, rng, 1.0f);
        const AttnPartial got =
            simd::attn_partial(isa, q, k, v, p.q_offset, p.k_offset, scale);
        const AttnPartial want =
            oracle_attn_partial(q, k, v, p.q_offset, p.k_offset, scale);
        const std::string where = shape_name(isa, p.q_len, p.kv_len, d);
        EXPECT_TRUE(same_bytes(got.out, want.out)) << where;
        EXPECT_TRUE(same_bytes(got.m, want.m)) << where;
        EXPECT_TRUE(same_bytes(got.l, want.l)) << where;
      }
    }
  }
}

TEST(KernelOracleTest, AttnStreamedBwdBitExact) {
  Rng rng(44);
  const float scale = 0.41f;
  for (Isa isa : simd::supported_isas()) {
    for (std::int64_t d : {1, 7, 8, 9, 16, 17, 33}) {
      for (std::int64_t s : {1, 7, 9, 17, 19}) {
        // Three KV chunks of uneven length; the query slice (offset 10)
        // starts inside the second chunk and, from 7 rows on, reaches the
        // third's start, so rows see all, part or none of a chunk. A fourth
        // chunk past every query is fully invisible.
        std::vector<KvChunk> chunks;
        std::int64_t pos = 0;
        for (std::int64_t len : {7, 9, 17, 5}) {
          chunks.push_back({Tensor::randn(len, d, rng, 1.0f),
                            Tensor::randn(len, d, rng, 1.0f), pos});
          pos += len;
        }
        const std::int64_t q_offset = 10;
        const Tensor q = Tensor::randn(s, d, rng, 1.0f);
        const Tensor dout = Tensor::randn(s, d, rng, 1.0f);
        const AttnPartial fwd = attn_streamed(q, chunks, q_offset, scale);

        auto zeros = [&] {
          std::vector<Tensor> out;
          for (const KvChunk& c : chunks) out.emplace_back(c.k.rows(), d);
          return out;
        };
        Tensor dq_got, dq_want;
        std::vector<Tensor> dk_got = zeros(), dv_got = zeros();
        std::vector<Tensor> dk_want = zeros(), dv_want = zeros();
        simd::attn_streamed_bwd(isa, q, chunks, q_offset, scale, fwd, dout,
                                dq_got, dk_got, dv_got);
        oracle_attn_streamed_bwd(q, chunks, q_offset, scale, fwd, dout,
                                 dq_want, dk_want, dv_want);
        const std::string where = shape_name(isa, s, pos, d);
        EXPECT_TRUE(same_bytes(dq_got, dq_want)) << where;
        for (std::size_t c = 0; c < chunks.size(); ++c) {
          EXPECT_TRUE(same_bytes(dk_got[c], dk_want[c]))
              << where << " chunk " << c;
          EXPECT_TRUE(same_bytes(dv_got[c], dv_want[c]))
              << where << " chunk " << c;
        }
      }
    }
  }
}

// Tile edges through the fused streamed forward: query blocks of 1, 7, 9
// and 17 rows (partial tiles), rows that see nothing of a chunk inside a
// tile, and diagonal chunks where the tile's rows see different key
// counts. It must equal the attn_partial + attn_merge chain exactly.
TEST(KernelOracleTest, AttnStreamedTileEdgesBitExact) {
  Rng rng(45);
  const float scale = 0.29f;
  const std::vector<std::vector<std::int64_t>> layouts = {{13}, {5, 11, 8}};
  for (Isa isa : simd::supported_isas()) {
    for (std::int64_t d : {1, 7, 8, 9, 16, 17, 33}) {
      for (std::int64_t s : {1, 7, 9, 17}) {
        for (const std::vector<std::int64_t>& lens : layouts) {
          // The query block starts 3 keys into the first chunk.
          const std::int64_t q_offset = 3;
          std::vector<KvChunk> chunks;
          std::int64_t pos = 0;
          for (std::int64_t len : lens) {
            chunks.push_back({Tensor::randn(len, d, rng, 1.0f),
                              Tensor::randn(len, d, rng, 1.0f), pos});
            pos += len;
          }
          const Tensor q = Tensor::randn(s, d, rng, 1.0f);
          AttnPartial want;
          for (std::size_t c = 0; c < chunks.size(); ++c) {
            AttnPartial part =
                oracle_attn_partial(q, chunks[c].k, chunks[c].v, q_offset,
                                    chunks[c].pos, scale);
            want = c == 0 ? std::move(part) : oracle_attn_merge(want, part);
          }
          const AttnPartial got =
              simd::attn_streamed(isa, q, chunks, q_offset, scale);
          const std::string where = shape_name(isa, s, pos, d) + " chunks " +
                                    std::to_string(chunks.size());
          EXPECT_TRUE(same_bytes(got.out, want.out)) << where;
          EXPECT_TRUE(same_bytes(got.m, want.m)) << where;
          EXPECT_TRUE(same_bytes(got.l, want.l)) << where;
        }
      }
    }
  }
}

// The public merge is the same fold: merging two partials equals the
// oracle merge byte for byte, including rows without visible keys.
TEST(KernelOracleTest, AttnMergeBitExact) {
  Rng rng(46);
  const Tensor q = Tensor::randn(11, 9, rng, 1.0f);
  const Tensor k = Tensor::randn(20, 9, rng, 1.0f);
  const Tensor v = Tensor::randn(20, 9, rng, 1.0f);
  // Keys 0-9 and 10-19 for queries at 6..16: early rows see nothing of
  // the second block.
  const AttnPartial a = oracle_attn_partial(q, k.slice_rows(0, 10),
                                            v.slice_rows(0, 10), 6, 0, 0.3f);
  const AttnPartial b = oracle_attn_partial(q, k.slice_rows(10, 20),
                                            v.slice_rows(10, 20), 6, 10, 0.3f);
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    const AttnPartial got = attn_merge(*x, *y);
    const AttnPartial want = oracle_attn_merge(*x, *y);
    EXPECT_TRUE(same_bytes(got.out, want.out));
    EXPECT_TRUE(same_bytes(got.m, want.m));
    EXPECT_TRUE(same_bytes(got.l, want.l));
  }
}

// ---- the repository exp -----------------------------------------------------

TEST(RepoExpTest, WithinTwoUlpOfCorrectlyRounded) {
  std::int64_t worst = 0;
  float worst_x = 0.0f;
  for (float x : exp_sweep()) {
    const float got = simd::exp(x);
    const float want = static_cast<float>(std::exp(static_cast<double>(x)));
    if (want < FLT_MIN) {
      // Below the underflow threshold: flushed to +0, never a denormal.
      EXPECT_EQ(got, 0.0f) << x;
      EXPECT_FALSE(std::signbit(got)) << x;
      continue;
    }
    ASSERT_GE(got, FLT_MIN) << x;
    const std::int64_t ulps = ulp_distance(got, want);
    if (ulps > worst) {
      worst = ulps;
      worst_x = x;
    }
  }
  RecordProperty("max_ulp", static_cast<int>(worst));
  std::printf("repository exp: max error %lld ulp (at x = %.9g)\n",
              static_cast<long long>(worst), worst_x);
  EXPECT_LE(worst, 2);
}

TEST(RepoExpTest, ExactCases) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(simd::exp(0.0f), 1.0f);
  EXPECT_EQ(simd::exp(-0.0f), 1.0f);
  const float at_neg_inf = simd::exp(-inf);
  EXPECT_EQ(at_neg_inf, 0.0f);
  EXPECT_FALSE(std::signbit(at_neg_inf));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(simd::exp(nan)));
  EXPECT_TRUE(std::isnan(simd::exp(-nan)));
  // Underflow: the threshold is the smallest float whose e^x is normal.
  const float threshold = -0x1.5d589ep+6f;
  EXPECT_GE(std::exp(static_cast<double>(threshold)), FLT_MIN);
  EXPECT_LT(std::exp(static_cast<double>(std::nextafter(threshold, -inf))),
            FLT_MIN);
  EXPECT_GE(simd::exp(threshold), FLT_MIN);
  for (float x : {std::nextafter(threshold, -inf), -88.0f, -100.0f, -1e30f,
                  -std::numeric_limits<float>::max()}) {
    EXPECT_EQ(simd::exp(x), 0.0f) << x;
  }
  // Overflow.
  EXPECT_EQ(simd::exp(88.72f),
            static_cast<float>(std::exp(static_cast<double>(88.72f))));
  for (float x : {89.0f, 100.0f, 1e30f, std::numeric_limits<float>::max(),
                  inf}) {
    EXPECT_EQ(simd::exp(x), inf) << x;
  }
}

// Every ISA's vector exp gives the scalar form's bits over the sweep plus
// the special values (an odd count, so the scalar tail runs too); the
// oracles' copy gives them as well.
TEST(RepoExpTest, EveryIsaAndTheOracleMatchTheScalarForm) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = exp_sweep();
  for (float x : {0.0f, -0.0f, inf, -inf, 88.72f, 100.0f, -100.0f,
                  std::numeric_limits<float>::quiet_NaN(), 1.5f, 3.0f}) {
    xs.push_back(x);
  }
  std::vector<float> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    want[i] = simd::exp(xs[i]);
    const float copy = oracle_exp(xs[i]);
    ASSERT_EQ(std::memcmp(&copy, &want[i], sizeof copy), 0) << xs[i];
  }
  for (Isa isa : simd::supported_isas()) {
    std::vector<float> got(xs.size());
    simd::kernels(isa).exp(xs.data(), static_cast<std::int64_t>(xs.size()),
                           0.0f, got.data());
    EXPECT_TRUE(same_bytes(got, want)) << simd::isa_name(isa);
  }
}

// ---- SwiGLU on the repository exp -------------------------------------------

// Sizes around every ISA's vector width (4, 8, 16 floats) and the
// train-threads slice (64 x 192).
const std::int64_t kSwigluSizes[] = {1, 7, 15, 16, 17, 33, 12288};

// n gates spread over [-90, 90], past both ends of the exp's finite range,
// with +0, -0, +inf and -inf in the first slots that exist.
std::vector<float> swiglu_gates(std::int64_t n, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> g(static_cast<std::size_t>(n));
  for (float& x : g) x = static_cast<float>(-90.0 + 180.0 * rng.next_double());
  const float specials[] = {0.0f, -0.0f, inf, -inf};
  for (std::size_t i = 0; i < 4 && i < g.size(); ++i) g[i] = specials[i];
  return g;
}

// Every ISA's SwiGLU forward and backward give the bits of the scalar
// silu/silu_grad formulas, and the backward's fused forward output gives
// the forward's.
TEST(SwigluKernelTest, EveryIsaMatchesTheScalarForms) {
  Rng rng(47);
  for (std::int64_t n : kSwigluSizes) {
    const std::vector<float> g = swiglu_gates(n, rng);
    const Tensor up_t = Tensor::randn(1, n, rng, 1.0f);
    const Tensor dout_t = Tensor::randn(1, n, rng, 1.0f);
    const std::vector<float> up(up_t.data(), up_t.data() + n);
    const std::vector<float> dout(dout_t.data(), dout_t.data() + n);
    const std::size_t un = static_cast<std::size_t>(n);
    std::vector<float> want_out(un), want_dg(un), want_du(un);
    for (std::size_t e = 0; e < un; ++e) {
      want_out[e] = silu(g[e]) * up[e];
      want_dg[e] = dout[e] * up[e] * silu_grad(g[e]);
      want_du[e] = dout[e] * silu(g[e]);
    }
    for (Isa isa : simd::supported_isas()) {
      const simd::Kernels& kern = simd::kernels(isa);
      const std::string where =
          std::string(simd::isa_name(isa)) + " n=" + std::to_string(n);
      std::vector<float> out(un), dg(un), du(un), fused(un);
      kern.swiglu(g.data(), up.data(), n, out.data());
      kern.swiglu_bwd(g.data(), up.data(), dout.data(), n, dg.data(),
                      du.data(), fused.data());
      EXPECT_TRUE(same_bytes(out, want_out)) << where;
      EXPECT_TRUE(same_bytes(dg, want_dg)) << where;
      EXPECT_TRUE(same_bytes(du, want_du)) << where;
      EXPECT_TRUE(same_bytes(fused, want_out)) << where;
    }
  }
}

// The public backward returns the forward's bits, so the layer can take
// the w_down gradient from it instead of a second forward.
TEST(SwigluKernelTest, BackwardReturnsTheForwardOutput) {
  Rng rng(48);
  for (auto [rows, cols] : {std::pair<std::int64_t, std::int64_t>{64, 192},
                            {7, 33}, {1, 1}}) {
    const Tensor g = Tensor::randn(rows, cols, rng, 4.0f);
    const Tensor up = Tensor::randn(rows, cols, rng, 1.0f);
    const Tensor dout = Tensor::randn(rows, cols, rng, 1.0f);
    Tensor dg, du;
    const Tensor fused = swiglu_bwd(g, up, dout, dg, du);
    EXPECT_TRUE(same_bytes(fused, swiglu(g, up))) << rows << "x" << cols;
  }
}

}  // namespace
}  // namespace slim::num
