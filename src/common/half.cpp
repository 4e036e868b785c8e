#include "common/half.hpp"

#include <ostream>
#include <vector>

namespace aift {

const float* f16_to_f32_table() {
  static const std::vector<float> table = [] {
    std::vector<float> t(0x10000);
    for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
      t[h] = f16_bits_to_f32(static_cast<std::uint16_t>(h));
    }
    return t;
  }();
  return table.data();
}

std::ostream& operator<<(std::ostream& os, half_t h) { return os << h.to_float(); }

}  // namespace aift
