#pragma once
// Software emulation of IEEE 754 binary16 ("FP16").
//
// The paper's kernels operate on FP16 operands with FP32 accumulation
// (tensor-core m16n8k8 semantics). There is no GPU in this environment, so
// the functional GEMM executor and the ABFT checks run on this bit-exact
// software half type: round-to-nearest-even conversions, subnormals,
// infinities and NaNs all behave as on hardware.

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace aift {

/// Converts an IEEE binary32 value to binary16 bits (round-to-nearest-even).
/// Inline: every GEMM store and activation runs through it.
inline std::uint16_t f32_to_f16_bits(float f) noexcept {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t exp32 = (x >> 23) & 0xFFu;
  std::uint32_t man = x & 0x7FFFFFu;

  if (exp32 == 0xFFu) {  // Inf or NaN: preserve NaN-ness with a payload bit.
    const std::uint32_t payload = man ? (0x0200u | (man >> 13)) : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | payload);
  }

  const int e = static_cast<int>(exp32) - 127 + 15;  // rebiased exponent
  if (e >= 0x1F) {  // overflow -> infinity
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (e <= 0) {  // subnormal half (or underflow to zero)
    if (e < -10) return static_cast<std::uint16_t>(sign);
    man |= 0x800000u;  // make the implicit leading 1 explicit
    const int shift = 14 - e;
    std::uint32_t sub = man >> shift;
    const std::uint32_t rem = man & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (sub & 1u))) ++sub;
    return static_cast<std::uint16_t>(sign | sub);
  }

  std::uint32_t out = sign | (static_cast<std::uint32_t>(e) << 10) | (man >> 13);
  const std::uint32_t rem = man & 0x1FFFu;
  // Round to nearest even; a carry out of the mantissa correctly increments
  // the exponent (and can round up to infinity).
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<std::uint16_t>(out);
}

/// Converts binary16 bits to the exactly-representable binary32 value.
///
/// Branch-free, so loops over FP16 buffers vectorize: the magnitude is
/// rebiased by shifting it into place and adding the exponent offset
/// (twice for Inf/NaN, so the all-ones exponent stays all-ones and a NaN
/// keeps its payload, signaling bit included); a subnormal or zero is
/// built as 2^-14 * (1 + man/1024) and has 2^-14 subtracted, which is
/// exact and leaves man * 2^-24. Only that subtraction is floating-point,
/// and its result is discarded on the Inf/NaN path, so no NaN is ever
/// quieted. Equal to the textbook decode on all 65536 patterns
/// (HalfDecode.ExhaustiveMatchesReference).
inline float f16_bits_to_f32(std::uint16_t h) noexcept {
  constexpr std::uint32_t kRebias = (127u - 15u) << 23;
  constexpr std::uint32_t kMinNormal = 113u << 23;  // 2^-14 as binary32
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t mag = h & 0x7FFFu;
  std::uint32_t bits = (mag << 13) + kRebias;
  if (mag >= 0x7C00u) bits += kRebias;  // Inf/NaN: exponent to all ones
  const float sub = std::bit_cast<float>((mag << 13) + kMinNormal) -
                    std::bit_cast<float>(kMinNormal);
  if (mag < 0x0400u) bits = std::bit_cast<std::uint32_t>(sub);
  return std::bit_cast<float>(bits | sign);
}

/// The binary32 value of every binary16 pattern, indexed by the bits:
/// table[h] == f16_bits_to_f32(h) on all 65536 patterns, because it is
/// filled from it (once, on first use). Bulk decode loops read it — one
/// load per element — where the branch-free decode does not vectorize.
[[nodiscard]] const float* f16_to_f32_table();

/// IEEE 754 binary16 value. Storage is the raw 16-bit pattern; arithmetic
/// is performed by converting through float (which is exact for +,-,*
/// inputs and then rounded once on conversion back, matching hardware
/// behaviour for single operations).
class half_t {
 public:
  constexpr half_t() noexcept : bits_(0) {}
  explicit half_t(float f) noexcept : bits_(f32_to_f16_bits(f)) {}
  explicit half_t(double d) noexcept : bits_(f32_to_f16_bits(static_cast<float>(d))) {}
  explicit half_t(int v) noexcept : bits_(f32_to_f16_bits(static_cast<float>(v))) {}

  static constexpr half_t from_bits(std::uint16_t bits) noexcept {
    half_t h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }
  [[nodiscard]] float to_float() const noexcept { return f16_bits_to_f32(bits_); }
  explicit operator float() const noexcept { return to_float(); }

  [[nodiscard]] bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_inf() const noexcept {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }
  [[nodiscard]] bool is_zero() const noexcept { return (bits_ & 0x7FFFu) == 0; }
  [[nodiscard]] bool signbit() const noexcept { return (bits_ & 0x8000u) != 0; }

  friend half_t operator+(half_t a, half_t b) noexcept {
    return half_t(a.to_float() + b.to_float());
  }
  friend half_t operator-(half_t a, half_t b) noexcept {
    return half_t(a.to_float() - b.to_float());
  }
  friend half_t operator*(half_t a, half_t b) noexcept {
    return half_t(a.to_float() * b.to_float());
  }
  friend half_t operator/(half_t a, half_t b) noexcept {
    return half_t(a.to_float() / b.to_float());
  }
  friend half_t operator-(half_t a) noexcept {
    return half_t::from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }

  // Comparisons follow IEEE semantics via the float path (NaN compares false).
  friend bool operator==(half_t a, half_t b) noexcept {
    return a.to_float() == b.to_float();
  }
  friend bool operator!=(half_t a, half_t b) noexcept { return !(a == b); }
  friend bool operator<(half_t a, half_t b) noexcept {
    return a.to_float() < b.to_float();
  }
  friend bool operator<=(half_t a, half_t b) noexcept {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>(half_t a, half_t b) noexcept { return b < a; }
  friend bool operator>=(half_t a, half_t b) noexcept { return b <= a; }

  // Constants (binary16 limits).
  static constexpr half_t max() noexcept { return from_bits(0x7BFFu); }       // 65504
  static constexpr half_t min_normal() noexcept { return from_bits(0x0400u); } // 2^-14
  static constexpr half_t denorm_min() noexcept { return from_bits(0x0001u); } // 2^-24
  static constexpr half_t infinity() noexcept { return from_bits(0x7C00u); }
  static constexpr half_t quiet_nan() noexcept { return from_bits(0x7E00u); }
  /// Distance from 1.0 to the next representable value: 2^-10.
  static constexpr float epsilon() noexcept { return 0.0009765625f; }
  /// Unit roundoff for round-to-nearest: 2^-11.
  static constexpr float unit_roundoff() noexcept { return 0.00048828125f; }

 private:
  std::uint16_t bits_;
};

static_assert(sizeof(half_t) == 2, "half_t must be 2 bytes");

std::ostream& operator<<(std::ostream& os, half_t h);

/// Round a float through FP16 precision (the quantization applied when a
/// kernel stores an FP32 accumulator to an FP16 output matrix).
inline float round_to_f16(float f) noexcept {
  return f16_bits_to_f32(f32_to_f16_bits(f));
}

}  // namespace aift
