#pragma once

// Rotary position embeddings: pairwise rotation of feature dimensions with
// position-dependent angles. The backward rotation is the inverse rotation,
// so RoPE needs no stored activations.
//
// The angles come from a process-wide (cos, sin) table per head dim, filled
// with the formula the rotation always used (θ = pos · base^(−2i/d), cos
// and sin of θ, all in float), so a table entry has the bits a direct
// computation would. The table grows on demand without a lock: a larger
// copy is published with a compare-exchange and published tables are never
// written again, so concurrent stage threads and forked workers are safe.

#include <cstdint>

#include "src/numerics/tensor.hpp"

namespace slim::num {

inline constexpr float kRopeBase = 10000.0f;

/// Rotates each row of `x` (shape s x d, d even) in place for global
/// positions [pos_offset, pos_offset + s).
void rope_apply(Tensor& x, std::int64_t pos_offset);

/// Gradient: rotate `dx` by the negative angles (in place).
void rope_apply_bwd(Tensor& dx, std::int64_t pos_offset);

/// Every head band of a whole projection (shape s x (heads · head_dim),
/// head_dim even): band h is columns [h·head_dim, (h+1)·head_dim) and
/// rotates like `rope_apply` on that band alone.
void rope_apply(Tensor& x, std::int64_t pos_offset, std::int64_t head_dim);
void rope_apply_bwd(Tensor& dx, std::int64_t pos_offset,
                    std::int64_t head_dim);

}  // namespace slim::num
