#pragma once

// RMSNorm and SwiGLU with manual backward passes.
//
// Both follow the paper's memory-thrifty conventions (§5): RMSNorm keeps no
// output (gradients are recomputed from the input), and SwiGLU's backward
// recomputes the swish product from the stored gate/up projections. SiLU
// uses the repository exp (kernels.hpp): the scalar functions below and
// the vector kernels give the same bits.

#include "src/numerics/tensor.hpp"

namespace slim::num {

inline constexpr float kRmsEps = 1e-5f;

/// y[r] = x[r] / rms(x[r]) * w   (w broadcast over rows).
Tensor rmsnorm(const Tensor& x, const Tensor& weight);

/// Backward from dy; accumulates into dweight, returns dx. Recomputes the
/// normalizer from x (memory-efficient variant).
Tensor rmsnorm_bwd(const Tensor& x, const Tensor& weight, const Tensor& dy,
                   Tensor& dweight);

/// silu(x) = x * sigmoid(x).
float silu(float x);
float silu_grad(float x);

/// out = silu(gate) * up, elementwise.
Tensor swiglu(const Tensor& gate, const Tensor& up);

/// Backward: fills dgate and dup from dout and returns swiglu(gate, up),
/// recomputed with the same exp (one per element for all three).
Tensor swiglu_bwd(const Tensor& gate, const Tensor& up, const Tensor& dout,
                  Tensor& dgate, Tensor& dup);

}  // namespace slim::num
