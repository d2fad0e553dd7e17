#pragma once

// Vectorized inner kernels of the numerics substrate (internal header).
//
// Bit contract: every output element runs the same sequence of IEEE
// operations as the scalar loops these kernels replaced — fp32 GEMM sums in
// ascending k from +0 with a separately rounded multiply and add, attention
// dots in double in ascending head-dim order — so results are bit-identical
// to the scalar code and across ISA variants. Vectorization is only ever
// *across* independent output elements (GEMM columns, attention keys, head
// dims), never across a reduction. No variant contracts to FMA:
// src/numerics is built with -ffp-contract=off.
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

/// Packed-key block: attention packs Kᵀ/Vᵀ with the key count rounded up to
/// a multiple of this (padding keys are zero; their scores are discarded).
constexpr std::int64_t kKeyBlock = 8;

inline std::int64_t padded_keys(std::int64_t keys) {
  return (keys + kKeyBlock - 1) / kKeyBlock * kKeyBlock;
}

struct Kernels {
  /// C[i][j] = Σ_{kk<k} A(i,kk)·B[kk][j] for i < m, j < n, fp32, ascending
  /// kk from +0. A(i,kk) = a[i*a_row + kk*a_k]; B and C are row-major with
  /// row strides ldb and ldc. C is overwritten.
  void (*gemm)(const float* a, std::int64_t a_row, std::int64_t a_k,
               const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
               std::int64_t m, std::int64_t n, std::int64_t k);
  /// out[j] = float(Σ_{c<dim} double(x[c])·mt[c*ld + j]) · scale for
  /// j < keys; `keys` is a multiple of kKeyBlock.
  void (*dots)(const float* x, const double* mt, std::int64_t ld,
               std::int64_t dim, std::int64_t keys, float scale, float* out);
  /// y[c] += w[j]·m[j*ld + c] for j = 0, 1, ..., keys-1 in turn (c < dim).
  void (*accumulate)(const float* w, const float* m, std::int64_t ld,
                     std::int64_t keys, std::int64_t dim, float* y);
  /// y[j*ld + c] += s[j]·x[c] for j < keys, c < dim.
  void (*rank1)(const float* s, const float* x, std::int64_t keys,
                std::int64_t dim, float* y, std::int64_t ld);
};

/// The kernel table of `isa`, which must be supported by this host.
const Kernels& kernels(Isa isa);

// Tensor-level entry points pinned to one ISA variant. The public kernels
// (matmul*, attn_partial, attn_streamed_bwd) call these with active_isa().
Tensor matmul(Isa isa, const Tensor& a, const Tensor& b);
Tensor matmul_nt(Isa isa, const Tensor& a, const Tensor& b);
Tensor matmul_tn(Isa isa, const Tensor& a, const Tensor& b);
AttnPartial attn_partial(Isa isa, const Tensor& q, const Tensor& k,
                         const Tensor& v, std::int64_t q_offset,
                         std::int64_t k_offset, float scale);
void attn_streamed_bwd(Isa isa, const Tensor& q,
                       const std::vector<KvChunk>& chunks,
                       std::int64_t q_offset, float scale,
                       const AttnPartial& fwd, const Tensor& dout, Tensor& dq,
                       std::vector<Tensor>& dk_chunks,
                       std::vector<Tensor>& dv_chunks);

}  // namespace slim::num::simd
