// Bit-exact oracle tests for the vectorized kernels (src/numerics/kernels):
// every ISA variant the host supports must reproduce the scalar loops the
// kernels replaced byte for byte, over shapes that hit every vector/tail
// path. The oracles below are those scalar loops, kept verbatim in their
// arithmetic (fp32 ascending-k GEMM sums from +0; double attention dots;
// per-query-chunk dk/dv partials folded in chunk order).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/numerics/attention.hpp"
#include "src/numerics/kernels.hpp"
#include "src/numerics/tensor.hpp"
#include "src/util/rng.hpp"

namespace slim::num {
namespace {

using simd::Isa;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr std::int64_t kQueryGrain = 8;  // attention.cpp's query chunk

// ---- scalar oracles ---------------------------------------------------------

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
      const float w = std::exp(scores[static_cast<std::size_t>(j)] - m);
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
              std::exp(static_cast<float>(dot) * scale - fwd.m[si]) * inv_l;
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
    {1, 1, 0, 0},    {3, 5, 4, 0},   {9, 13, 3, 5},
    {17, 33, 40, 8}, {8, 8, 0, 0},   {5, 9, 0, 3},
};

TEST(KernelOracleTest, AttnPartialBitExact) {
  Rng rng(43);
  const float scale = 0.37f;
  for (Isa isa : simd::supported_isas()) {
    for (std::int64_t d : {1, 7, 8, 9, 16, 17}) {
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
    for (std::int64_t d : {1, 7, 8, 9, 16, 17}) {
      // Three KV chunks of uneven length; the query slice (offset 10)
      // starts inside the second chunk and ends past the third's start, so
      // rows see all, part or none of a chunk. A fourth chunk past every
      // query is fully invisible.
      std::vector<KvChunk> chunks;
      std::int64_t pos = 0;
      for (std::int64_t len : {7, 9, 17, 5}) {
        chunks.push_back({Tensor::randn(len, d, rng, 1.0f),
                          Tensor::randn(len, d, rng, 1.0f), pos});
        pos += len;
      }
      const std::int64_t q_offset = 10, s = 19;
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

}  // namespace
}  // namespace slim::num
