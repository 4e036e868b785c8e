#pragma once
// Detection thresholds for floating-point ABFT equality checks.
//
// The checksum dot product and the output summation agree exactly in exact
// arithmetic but differ in floating point. Two rounding sources exist:
//   1. the FP16 quantization of each stored output element (unit roundoff
//      u16 = 2^-11) — the dominant term, proportional to sum(|C|);
//   2. FP32 accumulation noise inside the kernels — orders of magnitude
//      smaller and absorbed by the safety factor.
// A fault is declared when |checksum - summation| exceeds the threshold.
// Faults below the threshold are mathematically indistinguishable from
// rounding and are inherently undetectable by any checksum scheme at this
// precision (the paper's detection claims carry the same caveat).

#include <algorithm>
#include <cstdint>

#include "common/half.hpp"

namespace aift {

struct ErrorBoundParams {
  double safety_factor = 4.0;   ///< multiplies the analytic bound
  double absolute_floor = 1e-6; ///< guards all-zero / degenerate tiles
};

/// Threshold for a check over outputs whose absolute magnitudes sum to
/// `abs_magnitude_sum`, with outputs stored in FP16. Inline: the
/// thread-level check evaluates it once per lane row.
[[nodiscard]] inline double detection_threshold(double abs_magnitude_sum,
                                                const ErrorBoundParams& p = {}) {
  const double u16 = half_t::unit_roundoff();  // 2^-11
  return std::max(p.absolute_floor, p.safety_factor * u16 * abs_magnitude_sum);
}

/// Threshold when outputs are kept in FP32 (no FP16 store): accumulation
/// noise only, scaled by the reduction length.
[[nodiscard]] double detection_threshold_f32(double abs_magnitude_sum,
                                             std::int64_t reduction_len,
                                             const ErrorBoundParams& p = {});

}  // namespace aift
