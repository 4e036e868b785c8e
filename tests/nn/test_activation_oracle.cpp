// Independent oracle for the inter-layer flow. The reference computes
// every output element on its own — out(r, c) = half(act(prev(r % M',
// c % N'))) with its own activation functions — and shares nothing with
// activate_and_repack(_stacked), which activates each read source element
// once and fills wrapped rows and columns by copies. Covers target shapes
// smaller than, equal to and larger than the source in each dimension,
// 1/3/16 stacked requests, serial and pooled execution, shapes large
// enough to split a request's rows over the pool, and Inf/NaN sources.
//
// Registered whole-binary under AIFT_NUM_THREADS 1/2/8.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "nn/activation.hpp"

namespace aift {
namespace {

float reference_activation(float x, Activation a) {
  switch (a) {
    case Activation::identity:
      return x;
    case Activation::relu:
      return x > 0.0f ? x : 0.0f;
    case Activation::squash:
      if (x == std::numeric_limits<float>::infinity()) return 1.0f;
      if (x == -std::numeric_limits<float>::infinity()) return -1.0f;
      return x / (1.0f + std::fabs(x));
  }
  return x;
}

Matrix<half_t> source(std::int64_t rows, std::int64_t cols,
                      std::uint64_t seed) {
  Matrix<half_t> m(rows, cols);
  Rng rng(seed);
  rng.fill_uniform(m, -4.0, 4.0);
  // Non-finite values a faulty unprotected layer can pass on.
  m(0, 0) = half_t::infinity();
  m(rows - 1, cols - 1) = -half_t::infinity();
  m(rows / 2, cols / 2) = half_t::from_bits(0x7C01u);  // signaling NaN
  return m;
}

void expect_matches_reference(const Matrix<half_t>& stacked,
                              std::int64_t requests, Activation act,
                              std::int64_t rows, std::int64_t cols,
                              const Matrix<half_t>& got) {
  const std::int64_t src_rows = stacked.rows() / requests;
  ASSERT_EQ(got.rows(), requests * rows);
  ASSERT_EQ(got.cols(), cols);
  for (std::int64_t q = 0; q < requests; ++q) {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        const float x =
            stacked(q * src_rows + r % src_rows, c % stacked.cols()).to_float();
        const half_t want(reference_activation(x, act));
        ASSERT_EQ(want.bits(), got(q * rows + r, c).bits())
            << activation_name(act) << " request " << q << " at (" << r << ","
            << c << ")";
      }
    }
  }
}

TEST(ActivationOracle, StackedFlowMatchesElementwiseReference) {
  constexpr Activation kAll[] = {Activation::identity, Activation::relu,
                                 Activation::squash};
  const std::int64_t src_rows = 6, src_cols = 10;
  std::uint64_t seed = 1;
  for (const std::int64_t requests : {1, 3, 16}) {
    const auto stacked = source(requests * src_rows, src_cols, ++seed);
    for (const Activation act : kAll) {
      for (const std::int64_t rows : {src_rows - 5, src_rows, src_rows + 7}) {
        for (const std::int64_t cols : {src_cols - 3, src_cols, 3 * src_cols + 4}) {
          for (const bool parallel : {true, false}) {
            SCOPED_TRACE("requests " + std::to_string(requests) + " rows " +
                         std::to_string(rows) + " cols " +
                         std::to_string(cols) +
                         (parallel ? " pooled" : " serial"));
            expect_matches_reference(
                stacked, requests, act, rows, cols,
                activate_and_repack_stacked(stacked, requests, act, rows, cols,
                                            parallel));
          }
          if (requests == 1) {
            expect_matches_reference(
                stacked, 1, act, rows, cols,
                activate_and_repack(stacked, act, rows, cols));
          }
        }
      }
    }
  }
}

TEST(ActivationOracle, LargeRequestsSplitRowsWithoutChangingBits) {
  // Big enough that one request's rows split over several work items, in
  // both the activated band and the wrapped-row copies.
  const auto one = source(150, 300, 21);
  for (const auto& [rows, cols] :
       {std::pair<std::int64_t, std::int64_t>{150, 300},
        std::pair<std::int64_t, std::int64_t>{420, 700},
        std::pair<std::int64_t, std::int64_t>{90, 1000}}) {
    SCOPED_TRACE("rows " + std::to_string(rows) + " cols " +
                 std::to_string(cols));
    expect_matches_reference(one, 1, Activation::squash, rows, cols,
                             activate_and_repack(one, Activation::squash, rows,
                                                 cols));
  }
  const auto three = source(3 * 80, 256, 22);
  expect_matches_reference(
      three, 3, Activation::relu, 200, 600,
      activate_and_repack_stacked(three, 3, Activation::relu, 200, 600));
}

}  // namespace
}  // namespace aift
