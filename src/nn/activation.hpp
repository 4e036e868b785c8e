#pragma once
// Inter-layer activation flow for the functional executor.
//
// The paper's protected pipeline applies the activation function between
// the GEMM and the next layer (§2.5 step 3); numerically, what matters to
// the fault-tolerance machinery is that layer outputs feed forward
// deterministically, so an uncorrected corruption propagates to the final
// output while protected re-execution restores it bit-for-bit.
//
// repack_activations is the CPU stand-in for the im2col / reshape between
// layers: the next layer's M x K activation matrix is filled from the
// previous layer's (activated) M' x N' output by index wrapping. Element
// (0, 0) of the previous output is always sampled, and for the MLP-style
// layers the zoo's serving models use (M' == M, N' == K) the mapping is
// the identity.

#include <cstdint>

#include "common/half.hpp"
#include "common/matrix.hpp"

namespace aift {

enum class Activation {
  identity,
  relu,
  squash,  ///< x / (1 + |x|): bounded, sign-preserving, strictly monotone —
           ///< keeps magnitudes stable across arbitrarily deep surrogate
           ///< propagation while preserving where a corruption happened
};

[[nodiscard]] const char* activation_name(Activation a);

/// Applies `a` element-wise (computed in FP32, stored FP16).
void apply_activation(Matrix<half_t>& m, Activation a);

/// Builds the next layer's rows x cols activation matrix from `prev` by
/// index wrapping: out(r, c) = prev(r % prev.rows(), c % prev.cols()).
[[nodiscard]] Matrix<half_t> repack_activations(const Matrix<half_t>& prev,
                                                std::int64_t rows,
                                                std::int64_t cols);

/// `a` applied scalar-wise (the body of apply_activation, exposed so fused
/// flows compute the identical FP32 value without mutating the source).
[[nodiscard]] float activate_value(float x, Activation a);

/// Fused, non-destructive inter-layer flow: activation of `prev` followed
/// by repack into a rows x cols matrix, without modifying `prev`. Produces
/// bit-identical output to apply_activation + repack_activations — each
/// output element is half(activate_value(prev(...))) either way — while
/// leaving `prev` available for deferred verification and output digests.
/// Each source element that is read is activated once; wrapped columns and
/// rows are copies of it. A large matrix splits its rows over the pool.
[[nodiscard]] Matrix<half_t> activate_and_repack(const Matrix<half_t>& prev,
                                                 Activation a,
                                                 std::int64_t rows,
                                                 std::int64_t cols);

/// Batched inter-layer flow over `requests` row-stacked outputs: request
/// r's band of prev_stacked (prev_stacked.rows()/requests rows) is
/// activated and repacked independently — index wrapping never crosses a
/// request boundary — into rows of the returned (requests*rows x cols)
/// stacked matrix. Requests (and the rows of large ones) fan out over the
/// worker pool; bit-identical to per-request activate_and_repack at any
/// worker count.
[[nodiscard]] Matrix<half_t> activate_and_repack_stacked(
    const Matrix<half_t>& prev_stacked, std::int64_t requests, Activation a,
    std::int64_t rows, std::int64_t cols, bool parallel = true);

}  // namespace aift
