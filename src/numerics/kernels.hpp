#pragma once

// Vectorized inner kernels of the numerics substrate (internal header).
//
// Bit contract: every output element runs the same sequence of IEEE
// operations as the scalar loops these kernels replaced — fp32 GEMM sums in
// ascending k from +0 with a separately rounded multiply and add, attention
// dots in double in ascending head-dim order — so results are bit-identical
// to the scalar code and across ISA variants. Vectorization is only ever
// *across* independent output elements (GEMM columns, attention keys, head
// dims, the rows of an attention tile), never across a reduction. No
// variant contracts to FMA: src/numerics is built with -ffp-contract=off.
// Attention's and SwiGLU's exp is the repository's own (`exp` below), not
// libm's, so their bits do not depend on which expf the host's C library
// picks.
//
// Each kernel is written once with GCC vector types and instantiated per
// ISA; `active_isa()` picks the widest one the host supports at first use.
// Tests reach every supported variant through the `Isa`-taking entry points
// below.

#include <cstdint>
#include <vector>

#include "src/numerics/attention.hpp"
#include "src/numerics/tensor.hpp"

namespace slim::num::simd {

enum class Isa { Generic, Avx2, Avx512 };

const char* isa_name(Isa isa);
/// The variants this host can run, Generic first.
std::vector<Isa> supported_isas();
/// The widest supported variant; chosen once per process.
Isa active_isa();

/// The repository exp, the one attention and SwiGLU use: x = n·ln2 + r
/// with ln2 split in a high and a low part, e^r by a fixed polynomial, 2^n
/// from integer bits; no FMA, no libm. exp(±0) == 1 exactly, 0 below the
/// float underflow threshold (never a denormal) and for −inf, +inf on
/// overflow, NaN for NaN. Every ISA's vector form gives these same bits.
float exp(float x);

/// Query rows per attention tile. Attention score tiles are key-major,
/// s[j*kTile + r] = key j of tile row r, so per-row statistics (running
/// max, normalizer) run across the tile's rows, each row in key order.
constexpr std::int64_t kTile = 8;

struct Kernels {
  /// C[i][j] = Σ_{kk<k} A(i,kk)·B[kk][j] for i < m, j < n, fp32, ascending
  /// kk from +0. A(i,kk) = a[i*a_row + kk*a_k]; B and C are row-major with
  /// row strides ldb and ldc. C is overwritten.
  void (*gemm)(const float* a, std::int64_t a_row, std::int64_t a_k,
               const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
               std::int64_t m, std::int64_t n, std::int64_t k);
  /// Score tile: s[j*kTile + r] = float(Σ_{c<dim} xt[c*kTile + r]·mt[c*ld
  /// + j])·scale for j < keys, r < kTile; double sums in ascending c.
  void (*scores)(const double* xt, const double* mt, std::int64_t ld,
                 std::int64_t dim, std::int64_t keys, float scale, float* s);
  /// Online-softmax statistics of a score tile. Row r covers its first
  /// visible[r] keys in ascending order: m[r] = their max (−inf if none),
  /// s[j*kTile + r] = exp(s − m[r]) for those keys (0 for later ones) and
  /// l[r] = float of their double sum from +0. `keys` ≥ every visible[r].
  void (*softmax)(float* s, std::int64_t keys, const std::int64_t* visible,
                  float* m, float* l);
  /// Backward probabilities of a tile, every row and key j < keys:
  /// p = exp(p − m[r])·inv_l[r], then ds = p·(ds − D[r])·scale.
  void (*probs)(float* p, float* ds, std::int64_t keys, const float* m,
                const float* inv_l, const float* D, float scale);
  /// Online-softmax merge of rows r < rows ≤ kTile, in place: row r of b
  /// (normalized output b[r*d ..], max b_m[r], normalizer b_l[r]) folds
  /// into row r of a (a[r*d ..], a_m[r], a_l[r]) with attn_merge's formula.
  /// A row with l == 0 has no visible keys.
  void (*merge)(float* a, float* a_m, float* a_l, const float* b,
                const float* b_m, const float* b_l, std::int64_t rows,
                std::int64_t d);
  /// y[r*ldy + c] += w[j*kTile + r]·m[j*ld + c] for j = 0, 1, ...,
  /// visible[r]-1 in turn (r < rows ≤ kTile, c < dim).
  void (*accumulate)(const float* w, const std::int64_t* visible,
                     std::int64_t rows, const float* m, std::int64_t ld,
                     std::int64_t dim, float* y, std::int64_t ldy);
  /// y[j*ld + c] += s[j*kTile + r]·x[r*ldx + c] for r = 0, 1, ..., rows-1
  /// in turn, over the keys j < visible[r] of each row (c < dim).
  void (*rank1)(const float* s, const std::int64_t* visible,
                std::int64_t rows, const float* x, std::int64_t ldx,
                std::int64_t dim, float* y, std::int64_t ld);
  /// y[e] += x[e] for e < n.
  void (*add)(float* y, const float* x, std::int64_t n);
  /// out[j] = exp(x[j] − m) for j < n, with the repository exp.
  void (*exp)(const float* x, std::int64_t n, float m, float* out);
  /// SwiGLU for e < n: out = g / (1 + exp(−g)) · up.
  void (*swiglu)(const float* g, const float* up, std::int64_t n,
                 float* out);
  /// SwiGLU backward for e < n, one exp per element: with d = 1 + exp(−g),
  /// s = 1/d and silu = g/d, dg = dout·up·(s·(1 + g·(1 − s))),
  /// du = dout·silu and out = silu·up (the forward's bits).
  void (*swiglu_bwd)(const float* g, const float* up, const float* dout,
                     std::int64_t n, float* dg, float* du, float* out);
};

/// The kernel table of `isa`, which must be supported by this host.
const Kernels& kernels(Isa isa);

// Tensor-level entry points pinned to one ISA variant. The public kernels
// (matmul*, attn_partial, attn_streamed, attn_streamed_bwd) call these with
// active_isa().
Tensor matmul(Isa isa, const Tensor& a, const Tensor& b);
Tensor matmul_nt(Isa isa, const Tensor& a, const Tensor& b);
Tensor matmul_tn(Isa isa, const Tensor& a, const Tensor& b);
AttnPartial attn_partial(Isa isa, const Tensor& q, const Tensor& k,
                         const Tensor& v, std::int64_t q_offset,
                         std::int64_t k_offset, float scale);
AttnPartial attn_streamed(Isa isa, const Tensor& q,
                          const std::vector<KvChunk>& chunks,
                          std::int64_t q_offset, float scale);
void attn_streamed_bwd(Isa isa, const Tensor& q,
                       const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks);

}  // namespace slim::num::simd
