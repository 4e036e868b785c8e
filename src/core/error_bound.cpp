#include "core/error_bound.hpp"

#include <algorithm>
#include <cmath>

namespace aift {

double detection_threshold_f32(double abs_magnitude_sum,
                               std::int64_t reduction_len,
                               const ErrorBoundParams& p) {
  constexpr double eps32 = 0x1p-24;
  const double len = static_cast<double>(std::max<std::int64_t>(1, reduction_len));
  return std::max(p.absolute_floor,
                  p.safety_factor * eps32 * std::sqrt(len) * abs_magnitude_sum);
}

}  // namespace aift
