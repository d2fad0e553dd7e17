#include "src/numerics/kernels.hpp"

#include <algorithm>
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
  typedef std::uint32_t U __attribute__((vector_size(kBytes)));
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

// Tile height (GEMM rows, attention tile rows per register block):
// AVX-512's 32 registers hold an 8-row tile, the 16 of the narrower ISAs a
// 4-row one.
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

// ---- exp -------------------------------------------------------------------

// Range reduction and polynomial of Cephes' expf: at most 1 ulp from the
// correctly rounded float over every float argument in [-87.5, 88.72],
// evaluated without FMA.
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: n·kLn2Hi exact
constexpr float kLn2Lo = -2.12194440e-4f;
// Adding 1.5·2^23 rounds |v| < 2^22 to the nearest integer, left in the
// low mantissa bits.
constexpr float kRoundShift = 12582912.0f;
constexpr std::uint32_t kRoundShiftBits = 0x4B400000u;
// The smallest float whose e^x is a normal float (ln FLT_MIN rounded up).
constexpr float kExpMinArg = -0x1.5d589ep+6f;

// y = exp(x) for F = float or a float vector with U its same-width uint32
// type. Every step is one IEEE operation per element, so all forms agree
// bit for bit. y may alias x.
template <typename F, typename U>
[[gnu::always_inline]] inline void exp_impl(F& y, const F& x) {
  const F zero = {};
  // |x| past 100 saturates (to 0 or +inf) the same way; the clamp keeps n
  // small. NaN fails both compares and stays NaN.
  const F lo = zero - 100.0f, hi = zero + 100.0f;
  F xc = x < lo ? lo : x;
  xc = xc > hi ? hi : xc;
  const F t = xc * kLog2e + kRoundShift;
  const F n = t - kRoundShift;  // round(x·log2 e)
  F r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  // e^r = 1 + r + r²·P(r) for |r| ≤ ln2/2.
  F p = r * 1.9875691500e-4f + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  // 2^n = 2^(n/2 rounded down)·2^(the rest), built as biased exponent
  // fields a and b: both normal for |n| ≤ 252, so p·2^a is exact and only
  // the last product rounds. Unsigned arithmetic: no shift of a negative
  // value, whatever t holds.
  U bits;
  std::memcpy(&bits, &t, sizeof bits);
  const U biased = bits - kRoundShiftBits + 254u;  // n + 2·127
  const U a = biased >> 1;
  const U b = biased - a;
  const U a_bits = a << 23, b_bits = b << 23;
  F scale_a, scale_b;
  std::memcpy(&scale_a, &a_bits, sizeof scale_a);
  std::memcpy(&scale_b, &b_bits, sizeof scale_b);
  const F e = p * scale_a * scale_b;
  y = x < zero + kExpMinArg ? zero : e;
}

template <int kBytes>
[[gnu::always_inline]] inline void exp_block_impl(const float* x,
                                                  std::int64_t n, float m,
                                                  float* out) {
  using F = typename Vec<kBytes>::F;
  using U = typename Vec<kBytes>::U;
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t j = 0;
  for (; j + kW <= n; j += kW) {
    F v;
    load(v, x + j);
    v = v - m;
    exp_impl<F, U>(v, v);
    store(out + j, v);
  }
  for (; j < n; ++j) exp_impl<float, std::uint32_t>(out[j], x[j] - m);
}

// ---- SwiGLU ----------------------------------------------------------------

// One element (F = float, U = uint32) or one vector of them; the float form
// is also the vector loops' tail, so every lane has the scalar bits.
template <typename F, typename U>
[[gnu::always_inline]] inline void swiglu_step(const F& g, const F& up,
                                               F& out) {
  F e;
  exp_impl<F, U>(e, -g);
  out = g / (1.0f + e) * up;
}

template <typename F, typename U>
[[gnu::always_inline]] inline void swiglu_bwd_step(const F& g, const F& up,
                                                   const F& dout, F& dg,
                                                   F& du, F& out) {
  F e;
  exp_impl<F, U>(e, -g);
  const F d = 1.0f + e;
  const F s = 1.0f / d;
  const F silu = g / d;
  dg = dout * up * (s * (1.0f + g * (1.0f - s)));
  du = dout * silu;
  out = silu * up;
}

template <int kBytes>
[[gnu::always_inline]] inline void swiglu_impl(const float* g,
                                               const float* up,
                                               std::int64_t n, float* out) {
  using F = typename Vec<kBytes>::F;
  using U = typename Vec<kBytes>::U;
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t e = 0;
  for (; e + kW <= n; e += kW) {
    F gv, uv, ov;
    load(gv, g + e);
    load(uv, up + e);
    swiglu_step<F, U>(gv, uv, ov);
    store(out + e, ov);
  }
  for (; e < n; ++e) swiglu_step<float, std::uint32_t>(g[e], up[e], out[e]);
}

template <int kBytes>
[[gnu::always_inline]] inline void swiglu_bwd_impl(
    const float* g, const float* up, const float* dout, std::int64_t n,
    float* dg, float* du, float* out) {
  using F = typename Vec<kBytes>::F;
  using U = typename Vec<kBytes>::U;
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t e = 0;
  for (; e + kW <= n; e += kW) {
    F gv, uv, dv, dgv, duv, ov;
    load(gv, g + e);
    load(uv, up + e);
    load(dv, dout + e);
    swiglu_bwd_step<F, U>(gv, uv, dv, dgv, duv, ov);
    store(dg + e, dgv);
    store(du + e, duv);
    store(out + e, ov);
  }
  for (; e < n; ++e) {
    swiglu_bwd_step<float, std::uint32_t>(g[e], up[e], dout[e], dg[e], du[e],
                                          out[e]);
  }
}

// ---- attention -------------------------------------------------------------
//
// Attention works on tiles of kTile query rows. Score tiles are key-major
// (one 8-lane vector per key), so the per-row running max and normalizer
// fold every row in key order while the rows run side by side.

typedef float F8 __attribute__((vector_size(4 * kTile)));
typedef double D8 __attribute__((vector_size(8 * kTile)));
typedef std::int32_t I8 __attribute__((vector_size(4 * kTile)));
typedef std::int64_t L8 __attribute__((vector_size(8 * kTile)));
typedef std::uint32_t U8 __attribute__((vector_size(4 * kTile)));

// Lanes r with j < visible[r].
[[gnu::always_inline]] inline void visible_lanes(const L8& visible,
                                                 std::int64_t j, I8& f) {
  const L8 jv = L8{} + j;
  const L8 d = jv < visible;
  f = __builtin_convertvector(d, I8);
}

// kN keys starting at key j, each an 8-lane double sum over the tile rows.
template <int kN>
[[gnu::always_inline]] inline void scores_block(const double* xt,
                                                const double* mt,
                                                std::int64_t ld,
                                                std::int64_t dim,
                                                std::int64_t j, float scale,
                                                float* s) {
  D8 acc[kN] = {};
  for (std::int64_t c = 0; c < dim; ++c) {
    D8 xv;
    load(xv, xt + c * kTile);
    const double* row = mt + c * ld + j;
#pragma GCC unroll 8
    for (int n = 0; n < kN; ++n) acc[n] = acc[n] + xv * row[n];
  }
#pragma GCC unroll 8
  for (int n = 0; n < kN; ++n) {
    const F8 f = __builtin_convertvector(acc[n], F8) * scale;
    store(s + (j + n) * kTile, f);
  }
}

template <int kBytes>
[[gnu::always_inline]] inline void scores_impl(const double* xt,
                                               const double* mt,
                                               std::int64_t ld,
                                               std::int64_t dim,
                                               std::int64_t keys, float scale,
                                               float* s) {
  // As many keys in flight as one register's worth of doubles: eight
  // register-sized accumulators on every ISA.
  constexpr int kN = Vec<kBytes>::kDoubles;
  std::int64_t j = 0;
  for (; j + kN <= keys; j += kN) {
    scores_block<kN>(xt, mt, ld, dim, j, scale, s);
  }
  for (; j < keys; ++j) scores_block<1>(xt, mt, ld, dim, j, scale, s);
}

// Elementwise passes over a score tile treat it as a flat array and use
// the ISA's full width: a group of kGroup floats is one vector of whole
// keys (AVX-512: two) or whole vectors of one key (SSE: two), and per-row
// operands repeat with period kTile across it.
template <int kBytes>
constexpr int kGroup = Vec<kBytes>::kFloats > kTile ? Vec<kBytes>::kFloats
                                                    : static_cast<int>(kTile);

template <int kBytes>
[[gnu::always_inline]] inline void row_pattern(const float* lanes,
                                               float* out) {
  for (int i = 0; i < kGroup<kBytes>; ++i) out[i] = lanes[i % kTile];
}

// One vector V of tile elements: exp_step sets x = exp(x − m), probs_step
// p = p·il and ds = p·(ds − D)·scale; mp, ip and dp hold each lane's row
// operand.
template <typename V, typename UV>
[[gnu::always_inline]] inline void exp_step(float* x, const float* mp) {
  V xv, mv;
  load(xv, x);
  load(mv, mp);
  xv = xv - mv;
  exp_impl<V, UV>(xv, xv);
  store(x, xv);
}

template <typename V>
[[gnu::always_inline]] inline void probs_step(float* p, float* ds,
                                              const float* ip,
                                              const float* dp, float scale) {
  V pv, dsv, iv, dv;
  load(pv, p);
  load(dsv, ds);
  load(iv, ip);
  load(dv, dp);
  pv = pv * iv;
  dsv = pv * (dsv - dv) * scale;
  store(p, pv);
  store(ds, dsv);
}

// x[j*kTile + r] = exp(x[j*kTile + r] − m[r]) for j < keys, every lane.
template <int kBytes>
[[gnu::always_inline]] inline void exp_tile(float* x, std::int64_t keys,
                                            const float* m) {
  using F = typename Vec<kBytes>::F;
  using U = typename Vec<kBytes>::U;
  constexpr int kW = Vec<kBytes>::kFloats, kG = kGroup<kBytes>;
  float mp[kG];
  row_pattern<kBytes>(m, mp);
  const std::int64_t n = keys * kTile;
  std::int64_t e = 0;
  for (; e + kG <= n; e += kG) {
#pragma GCC unroll 4
    for (int v = 0; v < kG / kW; ++v) {
      exp_step<F, U>(x + e + v * kW, mp + v * kW);
    }
  }
  // A last key a two-key group did not cover.
  if (e < n) exp_step<F8, U8>(x + e, mp);
}

template <int kBytes>
[[gnu::always_inline]] inline void softmax_impl(float* s, std::int64_t keys,
                                                const std::int64_t* visible,
                                                float* m_out, float* l_out) {
  L8 vis;
  load(vis, visible);
  std::int64_t common = keys;
  for (int r = 0; r < kTile; ++r) common = std::min(common, visible[r]);
  // Keys past a row's visible prefix enter its max as −inf and its sum as
  // +0, both exact identities, so the folds need no branches.
  const F8 neg_inf = F8{} - __builtin_huge_valf();
  F8 m = neg_inf;
  for (std::int64_t j = 0; j < keys; ++j) {
    F8 sv;
    load(sv, s + j * kTile);
    if (j >= common) {
      I8 f;
      visible_lanes(vis, j, f);
      sv = f ? sv : neg_inf;
    }
    m = m < sv ? sv : m;
  }
  store(m_out, m);
  exp_tile<kBytes>(s, keys, m_out);
  D8 l = {};
  for (std::int64_t j = 0; j < keys; ++j) {
    F8 w;
    load(w, s + j * kTile);
    if (j >= common) {
      I8 f;
      visible_lanes(vis, j, f);
      w = f ? w : F8{};
      store(s + j * kTile, w);
    }
    l = l + __builtin_convertvector(w, D8);
  }
  store(l_out, __builtin_convertvector(l, F8));
}

template <int kBytes>
[[gnu::always_inline]] inline void probs_impl(float* p, float* ds,
                                              std::int64_t keys,
                                              const float* m,
                                              const float* inv_l,
                                              const float* D, float scale) {
  using F = typename Vec<kBytes>::F;
  constexpr int kW = Vec<kBytes>::kFloats, kG = kGroup<kBytes>;
  exp_tile<kBytes>(p, keys, m);
  float ip[kG], dp[kG];
  row_pattern<kBytes>(inv_l, ip);
  row_pattern<kBytes>(D, dp);
  const std::int64_t n = keys * kTile;
  std::int64_t e = 0;
  for (; e + kG <= n; e += kG) {
#pragma GCC unroll 4
    for (int v = 0; v < kG / kW; ++v) {
      probs_step<F>(p + e + v * kW, ds + e + v * kW, ip + v * kW, dp + v * kW,
                    scale);
    }
  }
  if (e < n) probs_step<F8>(p + e, ds + e, ip, dp, scale);
}

template <int kBytes>
[[gnu::always_inline]] inline void merge_impl(float* a, float* a_m,
                                              float* a_l, const float* b,
                                              const float* b_m,
                                              const float* b_l,
                                              std::int64_t rows,
                                              std::int64_t d) {
  using F = typename Vec<kBytes>::F;
  constexpr int kW = Vec<kBytes>::kFloats;
  // The rows' weights side by side; lanes past `rows` and rows that take a
  // branch below compute values nobody reads.
  F8 am = {}, al = {}, bm = {}, bl = {};
  for (std::int64_t r = 0; r < rows; ++r) {
    am[r] = a_m[r];
    al[r] = a_l[r];
    bm[r] = b_m[r];
    bl[r] = b_l[r];
  }
  const F8 m = am < bm ? bm : am;
  F8 ea = am - m, eb = bm - m;
  exp_impl<F8, U8>(ea, ea);
  exp_impl<F8, U8>(eb, eb);
  const F8 wa = al * ea, wb = bl * eb;
  const F8 l = wa + wb;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* ar = a + r * d;
    const float* br = b + r * d;
    if (bl[r] == 0.0f) {
      if (al[r] == 0.0f) {
        std::fill(ar, ar + d, 0.0f);
        a_m[r] = -__builtin_huge_valf();
        a_l[r] = 0.0f;
      }
      continue;
    }
    if (al[r] == 0.0f) {
      std::copy(br, br + d, ar);
      a_m[r] = bm[r];
      a_l[r] = bl[r];
      continue;
    }
    const float war = wa[r], wbr = wb[r], lr = l[r];
    std::int64_t c = 0;
    for (; c + kW <= d; c += kW) {
      F av, bv;
      load(av, ar + c);
      load(bv, br + c);
      store(ar + c, (av * war + bv * wbr) / lr);
    }
    for (; c < d; ++c) ar[c] = (ar[c] * war + br[c] * wbr) / lr;
    a_m[r] = m[r];
    a_l[r] = lr;
  }
}

// The smallest and largest visible count of kRows tile rows.
template <int kRows>
[[gnu::always_inline]] inline void visible_range(const std::int64_t* visible,
                                                 std::int64_t& lo,
                                                 std::int64_t& hi) {
  lo = hi = visible[0];
  for (int r = 1; r < kRows; ++r) {
    lo = std::min(lo, visible[r]);
    hi = std::max(hi, visible[r]);
  }
}

// kRows rows x kVecs vectors of y held in registers while the keys run
// ascending; each row stops at its own visible count.
template <int kBytes, int kRows, int kVecs>
struct AccumulateBlock {
  // Rows r0 .. r0+kRows-1 of the tile.
  [[gnu::always_inline]] static void run(std::int64_t r0, const float* w,
                                         const std::int64_t* visible,
                                         const float* m, std::int64_t ld,
                                         float* y, std::int64_t ldy) {
    w += r0;
    visible += r0;
    y += r0 * ldy;
    using F = typename Vec<kBytes>::F;
    constexpr int kW = Vec<kBytes>::kFloats;
    std::int64_t lo, hi;
    visible_range<kRows>(visible, lo, hi);
    F acc[kRows][kVecs];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) load(acc[r][v], y + r * ldy + v * kW);
    }
    for (std::int64_t j = 0; j < hi; ++j) {
      F mv[kVecs];
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) load(mv[v], m + j * ld + v * kW);
      const float* wj = w + j * kTile;
      if (j < lo) {
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
          for (int v = 0; v < kVecs; ++v) {
            acc[r][v] = acc[r][v] + mv[v] * wj[r];
          }
        }
      } else {
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
          if (j >= visible[r]) continue;
#pragma GCC unroll 4
          for (int v = 0; v < kVecs; ++v) {
            acc[r][v] = acc[r][v] + mv[v] * wj[r];
          }
        }
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) store(y + r * ldy + v * kW, acc[r][v]);
    }
  }
};

template <int kBytes, int kRows, int kVecs>
struct Rank1Block {
  // Rows r0 .. r0+kRows-1 of the tile.
  [[gnu::always_inline]] static void run(std::int64_t r0, const float* s,
                                         const std::int64_t* visible,
                                         const float* x, std::int64_t ldx,
                                         float* y, std::int64_t ld) {
    s += r0;
    visible += r0;
    x += r0 * ldx;
    using F = typename Vec<kBytes>::F;
    constexpr int kW = Vec<kBytes>::kFloats;
    std::int64_t lo, hi;
    visible_range<kRows>(visible, lo, hi);
    F xv[kRows][kVecs];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) load(xv[r][v], x + r * ldx + v * kW);
    }
    for (std::int64_t j = 0; j < hi; ++j) {
      F acc[kVecs];
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) load(acc[v], y + j * ld + v * kW);
      const float* sj = s + j * kTile;
      if (j < lo) {
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
          for (int v = 0; v < kVecs; ++v) acc[v] = acc[v] + xv[r][v] * sj[r];
        }
      } else {
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
          if (j >= visible[r]) continue;
#pragma GCC unroll 4
          for (int v = 0; v < kVecs; ++v) acc[v] = acc[v] + xv[r][v] * sj[r];
        }
      }
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) store(y + j * ld + v * kW, acc[v]);
    }
  }
};

// All rows of one column block, kTileRows at a time like gemm_panel, then
// the row tail; `Block` is AccumulateBlock or Rank1Block. Rows stay in
// ascending order, which rank1's per-element sums rely on.
template <int kBytes, int kVecs, template <int, int, int> class Block,
          typename... Args>
[[gnu::always_inline]] inline void tile_rows(std::int64_t rows,
                                             Args... args) {
  constexpr int kRows = kTileRows<kBytes>;
  std::int64_t r = 0;
  for (; r + kRows <= rows; r += kRows) {
    Block<kBytes, kRows, kVecs>::run(r, args...);
  }
  if (kRows > 4 && rows - r >= 4) {
    Block<kBytes, 4, kVecs>::run(r, args...);
    r += 4;
  }
  if (rows - r >= 2) {
    Block<kBytes, 2, kVecs>::run(r, args...);
    r += 2;
  }
  if (rows - r >= 1) Block<kBytes, 1, kVecs>::run(r, args...);
}

template <int kBytes>
[[gnu::always_inline]] inline void accumulate_impl(
    const float* w, const std::int64_t* visible, std::int64_t rows,
    const float* m, std::int64_t ld, std::int64_t dim, float* y,
    std::int64_t ldy) {
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t c = 0;
  for (; c + 2 * kW <= dim; c += 2 * kW) {
    tile_rows<kBytes, 2, AccumulateBlock>(rows, w, visible, m + c, ld, y + c,
                                          ldy);
  }
  for (; c + kW <= dim; c += kW) {
    tile_rows<kBytes, 1, AccumulateBlock>(rows, w, visible, m + c, ld, y + c,
                                          ldy);
  }
  // Column tail narrower than one vector: the same chains, one element at
  // a time.
  for (; c < dim; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float acc = y[r * ldy + c];
      for (std::int64_t j = 0; j < visible[r]; ++j) {
        acc = acc + w[j * kTile + r] * m[j * ld + c];
      }
      y[r * ldy + c] = acc;
    }
  }
}

template <int kBytes>
[[gnu::always_inline]] inline void rank1_impl(const float* s,
                                              const std::int64_t* visible,
                                              std::int64_t rows,
                                              const float* x, std::int64_t ldx,
                                              std::int64_t dim, float* y,
                                              std::int64_t ld) {
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t c = 0;
  for (; c + 2 * kW <= dim; c += 2 * kW) {
    tile_rows<kBytes, 2, Rank1Block>(rows, s, visible, x + c, ldx, y + c, ld);
  }
  for (; c + kW <= dim; c += kW) {
    tile_rows<kBytes, 1, Rank1Block>(rows, s, visible, x + c, ldx, y + c, ld);
  }
  std::int64_t hi = 0;
  for (std::int64_t r = 0; r < rows; ++r) hi = std::max(hi, visible[r]);
  for (; c < dim; ++c) {
    for (std::int64_t j = 0; j < hi; ++j) {
      float acc = y[j * ld + c];
      for (std::int64_t r = 0; r < rows; ++r) {
        if (j < visible[r]) acc = acc + s[j * kTile + r] * x[r * ldx + c];
      }
      y[j * ld + c] = acc;
    }
  }
}

template <int kBytes>
[[gnu::always_inline]] inline void add_impl(float* y, const float* x,
                                            std::int64_t n) {
  using F = typename Vec<kBytes>::F;
  constexpr int kW = Vec<kBytes>::kFloats;
  std::int64_t e = 0;
  for (; e + kW <= n; e += kW) {
    F yv, xv;
    load(yv, y + e);
    load(xv, x + e);
    store(y + e, yv + xv);
  }
  for (; e < n; ++e) y[e] = y[e] + x[e];
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
  __VA_ARGS__ void name##_scores(const double* xt, const double* mt,           \
                                 std::int64_t ld, std::int64_t dim,            \
                                 std::int64_t keys, float scale, float* s) {   \
    scores_impl<bytes>(xt, mt, ld, dim, keys, scale, s);                       \
  }                                                                            \
  __VA_ARGS__ void name##_softmax(float* s, std::int64_t keys,                 \
                                  const std::int64_t* visible, float* m,       \
                                  float* l) {                                  \
    softmax_impl<bytes>(s, keys, visible, m, l);                               \
  }                                                                            \
  __VA_ARGS__ void name##_probs(float* p, float* ds, std::int64_t keys,        \
                                const float* m, const float* inv_l,            \
                                const float* D, float scale) {                 \
    probs_impl<bytes>(p, ds, keys, m, inv_l, D, scale);                        \
  }                                                                            \
  __VA_ARGS__ void name##_merge(float* a, float* a_m, float* a_l,              \
                                const float* b, const float* b_m,              \
                                const float* b_l, std::int64_t rows,           \
                                std::int64_t d) {                              \
    merge_impl<bytes>(a, a_m, a_l, b, b_m, b_l, rows, d);                      \
  }                                                                            \
  __VA_ARGS__ void name##_accumulate(                                          \
      const float* w, const std::int64_t* visible, std::int64_t rows,          \
      const float* m, std::int64_t ld, std::int64_t dim, float* y,             \
      std::int64_t ldy) {                                                      \
    accumulate_impl<bytes>(w, visible, rows, m, ld, dim, y, ldy);              \
  }                                                                            \
  __VA_ARGS__ void name##_rank1(const float* s, const std::int64_t* visible,   \
                                std::int64_t rows, const float* x,             \
                                std::int64_t ldx, std::int64_t dim, float* y,  \
                                std::int64_t ld) {                             \
    rank1_impl<bytes>(s, visible, rows, x, ldx, dim, y, ld);                   \
  }                                                                            \
  __VA_ARGS__ void name##_add(float* y, const float* x, std::int64_t n) {      \
    add_impl<bytes>(y, x, n);                                                  \
  }                                                                            \
  __VA_ARGS__ void name##_exp(const float* x, std::int64_t n, float m,         \
                              float* out) {                                    \
    exp_block_impl<bytes>(x, n, m, out);                                       \
  }                                                                            \
  __VA_ARGS__ void name##_swiglu(const float* g, const float* up,              \
                                 std::int64_t n, float* out) {                 \
    swiglu_impl<bytes>(g, up, n, out);                                         \
  }                                                                            \
  __VA_ARGS__ void name##_swiglu_bwd(const float* g, const float* up,          \
                                     const float* dout, std::int64_t n,        \
                                     float* dg, float* du, float* out) {       \
    swiglu_bwd_impl<bytes>(g, up, dout, n, dg, du, out);                       \
  }                                                                            \
  const Kernels name##_kernels = {                                             \
      name##_gemm,   name##_scores,     name##_softmax, name##_probs,          \
      name##_merge,  name##_accumulate, name##_rank1,   name##_add,            \
      name##_exp,    name##_swiglu,     name##_swiglu_bwd};

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

float exp(float x) {
  float y;
  exp_impl<float, std::uint32_t>(y, x);
  return y;
}

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
