// Tests for the software FP16 type: bit-exact conversions, rounding,
// special values, arithmetic and comparison semantics.

#include "common/half.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace aift {
namespace {

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(half_t(1.0f).bits(), 0x3C00u);
  EXPECT_EQ(half_t(-1.0f).bits(), 0xBC00u);
  EXPECT_EQ(half_t(0.5f).bits(), 0x3800u);
  EXPECT_EQ(half_t(2.0f).bits(), 0x4000u);
  EXPECT_EQ(half_t(-2.0f).bits(), 0xC000u);
  EXPECT_EQ(half_t(0.0f).bits(), 0x0000u);
  EXPECT_EQ(half_t(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(half_t(65504.0f).bits(), 0x7BFFu);  // max finite
}

TEST(Half, KnownValues) {
  EXPECT_FLOAT_EQ(half_t::from_bits(0x3C00).to_float(), 1.0f);
  EXPECT_FLOAT_EQ(half_t::from_bits(0x3555).to_float(), 0.333251953125f);
  EXPECT_FLOAT_EQ(half_t::from_bits(0x7BFF).to_float(), 65504.0f);
  EXPECT_FLOAT_EQ(half_t::from_bits(0x0400).to_float(), 6.103515625e-05f);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(half_t(65520.0f).is_inf());  // above the rounding midpoint
  EXPECT_TRUE(half_t(1.0e10f).is_inf());
  EXPECT_TRUE(half_t(-1.0e10f).signbit());
  EXPECT_TRUE(half_t(-1.0e10f).is_inf());
  // 65519.996 rounds down to 65504.
  EXPECT_EQ(half_t(65519.0f).bits(), 0x7BFFu);
}

TEST(Half, UnderflowAndSubnormals) {
  const float denorm_min = 5.960464477539063e-08f;  // 2^-24
  EXPECT_EQ(half_t(denorm_min).bits(), 0x0001u);
  EXPECT_EQ(half_t(denorm_min / 2.0f).bits(), 0x0000u);  // ties to even
  EXPECT_EQ(half_t(denorm_min * 0.6f).bits(), 0x0001u);  // rounds up
  EXPECT_EQ(half_t(denorm_min * 0.4f).bits(), 0x0000u);  // rounds down
  // Largest subnormal: 1023 * 2^-24.
  EXPECT_FLOAT_EQ(half_t::from_bits(0x03FF).to_float(), 1023.0f * 0x1p-24f);
}

TEST(Half, RoundToNearestEvenAtMantissaBoundary) {
  // 1 + 2^-11 is exactly between 1.0 (0x3C00) and 1+2^-10 (0x3C01):
  // ties go to even (0x3C00).
  EXPECT_EQ(half_t(1.0f + 0x1p-11f).bits(), 0x3C00u);
  // (1 + 3*2^-11) is between 0x3C01 and 0x3C02: ties to even (0x3C02).
  EXPECT_EQ(half_t(1.0f + 3.0f * 0x1p-11f).bits(), 0x3C02u);
  // Slightly above the midpoint rounds up.
  EXPECT_EQ(half_t(1.0f + 0x1p-11f + 0x1p-20f).bits(), 0x3C01u);
}

TEST(Half, NanHandling) {
  EXPECT_TRUE(half_t(std::numeric_limits<float>::quiet_NaN()).is_nan());
  EXPECT_TRUE(half_t::quiet_nan().is_nan());
  EXPECT_TRUE(std::isnan(half_t::quiet_nan().to_float()));
  EXPECT_FALSE(half_t::quiet_nan() == half_t::quiet_nan());  // IEEE
  EXPECT_FALSE(half_t::infinity().is_nan());
  EXPECT_TRUE(half_t::infinity().is_inf());
  EXPECT_TRUE(std::isinf(half_t::infinity().to_float()));
}

TEST(Half, ExhaustiveRoundTripAllFinitePatterns) {
  // Every finite FP16 bit pattern must round-trip exactly through float.
  int checked = 0;
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto h = half_t::from_bits(static_cast<std::uint16_t>(bits));
    if (h.is_nan()) {
      EXPECT_TRUE(half_t(h.to_float()).is_nan());
      continue;
    }
    EXPECT_EQ(half_t(h.to_float()).bits(), bits) << "pattern " << bits;
    ++checked;
  }
  EXPECT_EQ(checked, 65536 - 2 * 1023);  // all but NaNs
}

TEST(Half, ConversionIsNearestRepresentable) {
  // For a sample of floats, |half(f) - f| must not exceed the distance to
  // either neighboring representable half value.
  for (int i = -2000; i <= 2000; ++i) {
    const float f = static_cast<float>(i) * 0.37f + 0.123f;
    const half_t h(f);
    if (h.is_inf()) continue;
    const float hv = h.to_float();
    const float up = half_t::from_bits(h.bits() + 1).to_float();
    const float dn =
        h.bits() > 0 ? half_t::from_bits(h.bits() - 1).to_float() : hv;
    EXPECT_LE(std::abs(hv - f), std::abs(up - f) + 1e-20);
    EXPECT_LE(std::abs(hv - f), std::abs(dn - f) + 1e-20);
  }
}

TEST(Half, Arithmetic) {
  const half_t a(1.5f), b(2.25f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 3.75f);
  EXPECT_FLOAT_EQ((b - a).to_float(), 0.75f);
  EXPECT_FLOAT_EQ((a * b).to_float(), 3.375f);
  EXPECT_FLOAT_EQ((b / half_t(1.5f)).to_float(), 1.5f);
  EXPECT_EQ((-a).bits(), half_t(-1.5f).bits());
}

TEST(Half, ArithmeticRoundsResult) {
  // 1 + 2^-11 == 1 in FP16 (the addend is below half an ulp).
  EXPECT_EQ((half_t(1.0f) + half_t(0x1p-11f)).bits(), half_t(1.0f).bits());
  // But 1 + 2^-10 is representable.
  EXPECT_GT((half_t(1.0f) + half_t(0x1p-10f)).to_float(), 1.0f);
}

TEST(Half, Comparisons) {
  EXPECT_LT(half_t(1.0f), half_t(2.0f));
  EXPECT_LE(half_t(1.0f), half_t(1.0f));
  EXPECT_GT(half_t(0.0f), half_t(-1.0f));
  EXPECT_EQ(half_t(0.0f), half_t(-0.0f));  // signed zeros compare equal
  EXPECT_NE(half_t(1.0f), half_t(1.001f));
}

TEST(Half, Constants) {
  EXPECT_FLOAT_EQ(half_t::max().to_float(), 65504.0f);
  EXPECT_FLOAT_EQ(half_t::min_normal().to_float(), 0x1p-14f);
  EXPECT_FLOAT_EQ(half_t::denorm_min().to_float(), 0x1p-24f);
  EXPECT_FLOAT_EQ(half_t::epsilon(), 0x1p-10f);
  EXPECT_FLOAT_EQ(half_t::unit_roundoff(), 0x1p-11f);
}

TEST(Half, RoundToF16Helper) {
  EXPECT_FLOAT_EQ(round_to_f16(1.0f + 0x1p-12f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_f16(0.1f), half_t(0.1f).to_float());
}

TEST(Half, SignBitQueries) {
  EXPECT_TRUE(half_t(-3.0f).signbit());
  EXPECT_FALSE(half_t(3.0f).signbit());
  EXPECT_TRUE(half_t(-0.0f).signbit());
  EXPECT_TRUE(half_t(0.0f).is_zero());
  EXPECT_TRUE(half_t(-0.0f).is_zero());
}

// The binary16 -> binary32 decode as first written (normalizing loop for
// subnormals), kept here as the reference the inline branch-free decode
// must reproduce bit for bit.
std::uint32_t reference_f16_decode_bits(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp16 = (h >> 10) & 0x1Fu;
  std::uint32_t man = h & 0x03FFu;
  if (exp16 == 0) {
    if (man == 0) return sign;
    int e = -1;
    do {
      man <<= 1;
      ++e;
    } while ((man & 0x0400u) == 0);
    man &= 0x03FFu;
    return sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
           (man << 13);
  }
  if (exp16 == 0x1Fu) return sign | 0x7F800000u | (man << 13);
  return sign | ((exp16 - 15 + 127) << 23) | (man << 13);
}

TEST(HalfDecode, ExhaustiveMatchesReference) {
  // Every pattern, signaling NaN payloads included: the decode moves bits
  // and never runs a NaN through floating-point arithmetic.
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const auto bits = static_cast<std::uint16_t>(h);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(f16_bits_to_f32(bits)),
              reference_f16_decode_bits(bits))
        << "pattern 0x" << std::hex << h;
  }
}

TEST(HalfDecode, TableMatchesReference) {
  // The table the thread-level check and the activation flow decode with.
  const float* table = f16_to_f32_table();
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(table[h]),
              reference_f16_decode_bits(static_cast<std::uint16_t>(h)))
        << "pattern 0x" << std::hex << h;
  }
}

TEST(HalfDecode, BulkLoopMatchesReference) {
  // The same decode as the check and activation kernels run it: a loop over
  // a buffer, which the compiler is free to vectorize.
  std::vector<half_t> in(0x10000);
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    in[h] = half_t::from_bits(static_cast<std::uint16_t>(h));
  }
  std::vector<float> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i].to_float();
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[h]),
              reference_f16_decode_bits(static_cast<std::uint16_t>(h)))
        << "pattern 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace aift
