#include "src/numerics/kernels.hpp"

#include <cstring>

#include "src/util/logging.hpp"

namespace slim::num::simd {

namespace {

// One generic implementation per kernel, written with GCC vector types of
// kBytes per register and force-inlined into per-ISA entry points (bottom
// of the file), which compile it with that ISA's instructions.
template <int kBytes>
struct Vec {
  typedef float F __attribute__((vector_size(kBytes)));
  typedef double D __attribute__((vector_size(kBytes)));
  // The float vector a D converts to (same lane count).
  typedef float FOfD __attribute__((vector_size(kBytes / 2)));
  static constexpr int kFloats = kBytes / 4;
  static constexpr int kDoubles = kBytes / 8;
};

// Unaligned vector load/store (by reference: a vector passed by value
// would have an ISA-dependent ABI).
template <typename V, typename T>
[[gnu::always_inline]] inline void load(V& v, const T* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V, typename T>
[[gnu::always_inline]] inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// ---- GEMM -----------------------------------------------------------------

// Register tile: kRows rows x kVecs vectors of C held in registers while k
// runs ascending; each element sees acc = acc + a*b, starting from +0.
template <int kBytes, int kRows, int kVecs>
[[gnu::always_inline]] inline void gemm_tile(const float* a, std::int64_t a_row,
                                             std::int64_t a_k, const float* b,
                                             std::int64_t ldb, float* c,
                                             std::int64_t ldc, std::int64_t k) {
  using F = typename Vec<kBytes>::F;
  constexpr int kW = Vec<kBytes>::kFloats;
  F acc[kRows][kVecs] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    F bv[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) load(bv[v], b + kk * ldb + v * kW);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const float av = a[r * a_row + kk * a_k];
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) acc[r][v] = acc[r][v] + bv[v] * av;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) store(c + r * ldc + v * kW, acc[r][v]);
  }
}

// Tile height: AVX-512's 32 registers hold an 8-row tile, the 16 of the
// narrower ISAs a 4-row one.
template <int kBytes>
constexpr int kTileRows = kBytes >= 64 ? 8 : 4;

// All rows of one column panel: full tiles, then the row tail.
template <int kBytes, int kVecs>
[[gnu::always_inline]] inline void gemm_panel(
    const float* a, std::int64_t a_row, std::int64_t a_k, const float* b,
    std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t m,
    std::int64_t k) {
  constexpr int kRows = kTileRows<kBytes>;
  std::int64_t i = 0;
  for (; i + kRows <= m; i += kRows) {
    gemm_tile<kBytes, kRows, kVecs>(a + i * a_row, a_row, a_k, b, ldb,
                                    c + i * ldc, ldc, k);
  }
  // Row tail: at most one 4-, 2- and 1-row tile.
  if (kRows > 4 && m - i >= 4) {
    gemm_tile<kBytes, 4, kVecs>(a + i * a_row, a_row, a_k, b, ldb,
                                c + i * ldc, ldc, k);
    i += 4;
  }
  if (m - i >= 2) {
    gemm_tile<kBytes, 2, kVecs>(a + i * a_row, a_row, a_k, b, ldb,
                                c + i * ldc, ldc, k);
    i += 2;
  }
  if (m - i >= 1) {
    gemm_tile<kBytes, 1, kVecs>(a + i * a_row, a_row, a_k, b, ldb,
                                c + i * ldc, ldc, k);
  }
}

template <int kBytes>
[[gnu::always_inline]] inline void gemm_impl(const float* a, std::int64_t a_row,
                                             std::int64_t a_k, const float* b,
                                             std::int64_t ldb, float* c,
                                             std::int64_t ldc, std::int64_t m,
                                             std::int64_t n, std::int64_t k) {
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t j = 0;
  for (; j + 2 * kW <= n; j += 2 * kW) {
    gemm_panel<kBytes, 2>(a, a_row, a_k, b + j, ldb, c + j, ldc, m, k);
  }
  for (; j + kW <= n; j += kW) {
    gemm_panel<kBytes, 1>(a, a_row, a_k, b + j, ldb, c + j, ldc, m, k);
  }
  // Column tail narrower than one vector: the same sum, one element at a
  // time.
  for (; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc = acc + a[i * a_row + kk * a_k] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

// ---- attention -------------------------------------------------------------

// kVecs double vectors of keys starting at key j.
template <int kBytes, int kVecs>
[[gnu::always_inline]] inline void dots_block(const float* x, const double* mt,
                                              std::int64_t ld, std::int64_t dim,
                                              std::int64_t j, float scale,
                                              float* out) {
  using D = typename Vec<kBytes>::D;
  using FOfD = typename Vec<kBytes>::FOfD;
  constexpr int kL = Vec<kBytes>::kDoubles;
  D acc[kVecs] = {};
  for (std::int64_t c = 0; c < dim; ++c) {
    const double xc = static_cast<double>(x[c]);
    const double* row = mt + c * ld + j;
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      D mv;
      load(mv, row + v * kL);
      acc[v] = acc[v] + mv * xc;
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) {
    const FOfD f = __builtin_convertvector(acc[v], FOfD) * scale;
    store(out + j + v * kL, f);
  }
}

template <int kBytes>
[[gnu::always_inline]] inline void dots_impl(const float* x, const double* mt,
                                             std::int64_t ld, std::int64_t dim,
                                             std::int64_t keys, float scale,
                                             float* out) {
  constexpr int kL = Vec<kBytes>::kDoubles;
  static_assert(kKeyBlock % kL == 0, "key block must hold whole vectors");
  // Wide blocks keep several independent sums in flight.
  constexpr int kWide = 4 * kL > 16 ? 4 * kL : 16;
  std::int64_t j = 0;
  for (; j + kWide <= keys; j += kWide) {
    dots_block<kBytes, kWide / kL>(x, mt, ld, dim, j, scale, out);
  }
  for (; j < keys; j += kKeyBlock) {
    dots_block<kBytes, kKeyBlock / kL>(x, mt, ld, dim, j, scale, out);
  }
}

template <int kBytes, int kVecs>
[[gnu::always_inline]] inline void accumulate_block(const float* w,
                                                    const float* m,
                                                    std::int64_t ld,
                                                    std::int64_t keys,
                                                    float* y) {
  using F = typename Vec<kBytes>::F;
  constexpr int kW = Vec<kBytes>::kFloats;
  F acc[kVecs];
#pragma GCC unroll 4
  for (int v = 0; v < kVecs; ++v) load(acc[v], y + v * kW);
  for (std::int64_t j = 0; j < keys; ++j) {
    const float wj = w[j];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      F mv;
      load(mv, m + j * ld + v * kW);
      acc[v] = acc[v] + mv * wj;
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < kVecs; ++v) store(y + v * kW, acc[v]);
}

template <int kBytes>
[[gnu::always_inline]] inline void accumulate_impl(const float* w,
                                                   const float* m,
                                                   std::int64_t ld,
                                                   std::int64_t keys,
                                                   std::int64_t dim, float* y) {
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t c = 0;
  for (; c + 2 * kW <= dim; c += 2 * kW) {
    accumulate_block<kBytes, 2>(w, m + c, ld, keys, y + c);
  }
  for (; c + kW <= dim; c += kW) {
    accumulate_block<kBytes, 1>(w, m + c, ld, keys, y + c);
  }
  for (; c < dim; ++c) {
    float acc = y[c];
    for (std::int64_t j = 0; j < keys; ++j) acc = acc + w[j] * m[j * ld + c];
    y[c] = acc;
  }
}

template <int kBytes>
[[gnu::always_inline]] inline void rank1_impl(const float* s, const float* x,
                                              std::int64_t keys,
                                              std::int64_t dim, float* y,
                                              std::int64_t ld) {
  using F = typename Vec<kBytes>::F;
  constexpr int kW = Vec<kBytes>::kFloats;
  for (std::int64_t j = 0; j < keys; ++j) {
    const float sj = s[j];
    float* row = y + j * ld;
    std::int64_t c = 0;
    for (; c + kW <= dim; c += kW) {
      F yv, xv;
      load(yv, row + c);
      load(xv, x + c);
      store(row + c, yv + sj * xv);
    }
    for (; c < dim; ++c) row[c] = row[c] + sj * x[c];
  }
}

// ---- per-ISA entry points --------------------------------------------------

#define SLIM_DEFINE_KERNELS(name, bytes, ...)                                  \
  __VA_ARGS__ void name##_gemm(const float* a, std::int64_t a_row,             \
                               std::int64_t a_k, const float* b,               \
                               std::int64_t ldb, float* c, std::int64_t ldc,   \
                               std::int64_t m, std::int64_t n,                 \
                               std::int64_t k) {                               \
    gemm_impl<bytes>(a, a_row, a_k, b, ldb, c, ldc, m, n, k);                  \
  }                                                                            \
  __VA_ARGS__ void name##_dots(const float* x, const double* mt,               \
                               std::int64_t ld, std::int64_t dim,              \
                               std::int64_t keys, float scale, float* out) {   \
    dots_impl<bytes>(x, mt, ld, dim, keys, scale, out);                        \
  }                                                                            \
  __VA_ARGS__ void name##_accumulate(const float* w, const float* m,           \
                                     std::int64_t ld, std::int64_t keys,       \
                                     std::int64_t dim, float* y) {             \
    accumulate_impl<bytes>(w, m, ld, keys, dim, y);                            \
  }                                                                            \
  __VA_ARGS__ void name##_rank1(const float* s, const float* x,                \
                                std::int64_t keys, std::int64_t dim, float* y, \
                                std::int64_t ld) {                             \
    rank1_impl<bytes>(s, x, keys, dim, y, ld);                                 \
  }                                                                            \
  const Kernels name##_kernels = {name##_gemm, name##_dots,                    \
                                  name##_accumulate, name##_rank1};

// Baseline ISA of the build (SSE2 on x86-64).
SLIM_DEFINE_KERNELS(generic, 16)
#if defined(__x86_64__)
#define SLIM_HAVE_X86_VARIANTS 1
SLIM_DEFINE_KERNELS(avx2, 32, [[gnu::target("avx2")]])
SLIM_DEFINE_KERNELS(avx512, 64, [[gnu::target("avx512f")]])
#endif
#undef SLIM_DEFINE_KERNELS

bool host_supports(Isa isa) {
#ifdef SLIM_HAVE_X86_VARIANTS
  __builtin_cpu_init();  // valid even before static constructors have run
#endif
  switch (isa) {
    case Isa::Generic:
      return true;
#ifdef SLIM_HAVE_X86_VARIANTS
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2");
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Generic: return "generic";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "?";
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::Generic, Isa::Avx2, Isa::Avx512}) {
    if (host_supports(isa)) out.push_back(isa);
  }
  return out;
}

Isa active_isa() {
  static const Isa best = supported_isas().back();
  return best;
}

const Kernels& kernels(Isa isa) {
  SLIM_CHECK(host_supports(isa),
             std::string("kernel ISA not supported on this host: ") +
                 isa_name(isa));
  switch (isa) {
#ifdef SLIM_HAVE_X86_VARIANTS
    case Isa::Avx2: return avx2_kernels;
    case Isa::Avx512: return avx512_kernels;
#endif
    default: return generic_kernels;
  }
}

}  // namespace slim::num::simd
