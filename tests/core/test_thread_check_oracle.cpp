// Independent oracle for the thread-level check. The reference below walks
// the grid exactly as the paper describes the kernel — block, warp, lane,
// with each lane's rows and columns straight from TileConfig::lane_rows /
// lane_cols — and recomputes every lane's checksums with plain scalar
// loops. It shares nothing with the engine's A·S formulation (prepared
// table, lane maps, SIMD variants, per-panel verdicts), so agreement on
// every failure's coordinates, residual and threshold bits, and on the
// failure order, pins the rewrite rather than comparing it with itself.
//
// Registered whole-binary under AIFT_NUM_THREADS 1/2/8: the failure order
// must be grid order at any worker count.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/replication.hpp"
#include "core/skinny_product.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"

namespace aift {
namespace {

ThreadLevelResult reference_check(const TileConfig& tile, ThreadAbftSide side,
                                  const Matrix<half_t>& a,
                                  const Matrix<half_t>& b,
                                  const Matrix<half_t>& c,
                                  const ErrorBoundParams& bound = {}) {
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  ThreadLevelResult out;
  for (std::int64_t bi = 0; bi * tile.mb < m; ++bi) {
    for (std::int64_t bj = 0; bj * tile.nb < n; ++bj) {
      for (int wm = 0; wm < tile.mb / tile.mw; ++wm) {
        for (int wn = 0; wn < tile.nb / tile.nw; ++wn) {
          const std::int64_t wr0 = bi * tile.mb + wm * tile.mw;
          const std::int64_t wc0 = bj * tile.nb + wn * tile.nw;
          for (int lane = 0; lane < 32; ++lane) {
            std::vector<std::int64_t> rows, cols;
            for (int r : tile.lane_rows(lane)) {
              if (wr0 + r < m) rows.push_back(wr0 + r);
            }
            for (int col : tile.lane_cols(lane)) {
              if (wc0 + col < n) cols.push_back(wc0 + col);
            }
            if (rows.empty() || cols.empty()) continue;
            ++out.threads_checked;

            std::vector<double> s(static_cast<std::size_t>(k));
            for (std::int64_t kk = 0; kk < k; ++kk) {
              double acc = 0.0;
              for (auto col : cols) {
                const double v = b(kk, col).to_float();
                acc = acc + v;
              }
              s[static_cast<std::size_t>(kk)] = acc;
            }
            const auto verdict = [&](double abft, double out_sum,
                                     double out_abs, std::int64_t row) {
              const double residual = std::fabs(abft - out_sum);
              const double threshold = detection_threshold(out_abs, bound);
              if (residual > threshold || !std::isfinite(out_sum)) {
                out.failures.push_back(ThreadCheckFailure{
                    bi, bj, wm, wn, lane, row, residual, threshold});
              }
            };
            if (side == ThreadAbftSide::one_sided) {
              for (auto row : rows) {
                double abft = 0.0;
                for (std::int64_t kk = 0; kk < k; ++kk) {
                  const double av = a(row, kk).to_float();
                  const double prod = av * s[static_cast<std::size_t>(kk)];
                  abft = abft + prod;
                }
                double out_sum = 0.0, out_abs = 0.0;
                for (auto col : cols) {
                  const double v = c(row, col).to_float();
                  out_sum = out_sum + v;
                  out_abs = out_abs + std::fabs(v);
                }
                verdict(abft, out_sum, out_abs, row);
              }
            } else {
              double abft = 0.0;
              for (std::int64_t kk = 0; kk < k; ++kk) {
                double a_sum = 0.0;
                for (auto row : rows) {
                  const double av = a(row, kk).to_float();
                  a_sum = a_sum + av;
                }
                const double prod = a_sum * s[static_cast<std::size_t>(kk)];
                abft = abft + prod;
              }
              double out_sum = 0.0, out_abs = 0.0;
              for (auto row : rows) {
                for (auto col : cols) {
                  const double v = c(row, col).to_float();
                  out_sum = out_sum + v;
                  out_abs = out_abs + std::fabs(v);
                }
              }
              verdict(abft, out_sum, out_abs, -1);
            }
          }
        }
      }
    }
  }
  out.fault_detected = !out.failures.empty();
  return out;
}

void expect_same(const ThreadLevelResult& want, const ThreadLevelResult& got) {
  EXPECT_EQ(want.fault_detected, got.fault_detected);
  EXPECT_EQ(want.threads_checked, got.threads_checked);
  ASSERT_EQ(want.failures.size(), got.failures.size());
  for (std::size_t i = 0; i < want.failures.size(); ++i) {
    const auto& w = want.failures[i];
    const auto& g = got.failures[i];
    SCOPED_TRACE("failure " + std::to_string(i));
    EXPECT_EQ(w.block_row, g.block_row);
    EXPECT_EQ(w.block_col, g.block_col);
    EXPECT_EQ(w.warp_m, g.warp_m);
    EXPECT_EQ(w.warp_n, g.warp_n);
    EXPECT_EQ(w.lane, g.lane);
    EXPECT_EQ(w.row, g.row);
    // Bits, not values: NaN residuals must match too.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w.residual),
              std::bit_cast<std::uint64_t>(g.residual));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w.threshold),
              std::bit_cast<std::uint64_t>(g.threshold));
  }
}

enum class Corruption { none, bit_flip, non_finite };

struct Case {
  Matrix<half_t> a, b, c;
};

Case make_case(const GemmShape& shape, const TileConfig& tile,
               Corruption corruption, std::uint64_t seed) {
  Case out{Matrix<half_t>(shape.m, shape.k), Matrix<half_t>(shape.k, shape.n),
           Matrix<half_t>(shape.m, shape.n)};
  Rng rng(seed);
  rng.fill_uniform(out.a);
  rng.fill_uniform(out.b);
  FunctionalOptions opts;
  if (corruption == Corruption::bit_flip) {
    opts.faults = {FaultSpec{shape.m / 2, shape.n / 3, -1, 0x20000000u}};
  }
  functional_gemm(out.a, out.b, out.c, tile, opts);
  if (corruption == Corruption::non_finite) {
    // Overflowed and NaN outputs, signaling payload included, at the
    // corners and the middle of C.
    out.c(0, 0) = half_t::infinity();
    out.c(shape.m - 1, shape.n - 1) = half_t::from_bits(0x7C01u);  // sNaN
    out.c(shape.m / 2, shape.n / 2) = half_t::from_bits(0xFE00u);  // -qNaN
    out.c(shape.m - 1, 0) = -half_t::infinity();
  }
  return out;
}

const std::vector<GemmShape>& oracle_shapes() {
  static const std::vector<GemmShape> shapes = {
      {1, 37, 50},   // one row
      {45, 1, 33},   // one column
      {1, 1, 8},     // one element
      {70, 90, 40},  // ragged in both dimensions
      {16, 512, 64},  // serving-sized: short and wide
      {300, 72, 19},  // tall, odd k
  };
  return shapes;
}

TEST(ThreadCheckOracle, MatchesReferenceOnEveryCandidateTile) {
  std::uint64_t seed = 100;
  for (const TileConfig& tile : candidate_tiles()) {
    for (const GemmShape& shape : oracle_shapes()) {
      for (const auto corruption : {Corruption::none, Corruption::bit_flip,
                                    Corruption::non_finite}) {
        const Case cs = make_case(shape, tile, corruption, ++seed);
        for (const auto side :
             {ThreadAbftSide::one_sided, ThreadAbftSide::two_sided}) {
          SCOPED_TRACE(tile.name() + " m" + std::to_string(shape.m) + "n" +
                       std::to_string(shape.n) + "k" + std::to_string(shape.k) +
                       (side == ThreadAbftSide::one_sided ? " one" : " two") +
                       " corruption " +
                       std::to_string(static_cast<int>(corruption)));
          const auto want = reference_check(tile, side, cs.a, cs.b, cs.c);
          if (corruption == Corruption::non_finite) {
            EXPECT_TRUE(want.fault_detected);
          }
          ThreadLevelAbft online(tile, side);
          expect_same(want, online.check(cs.a, cs.b, cs.c));
          ThreadLevelAbft prepared(tile, side);
          prepared.prepare(cs.b);
          expect_same(want, prepared.check(cs.a, cs.b, cs.c));
        }
      }
    }
  }
}

TEST(ThreadCheckOracle, EveryLaneResidualMatchesReference) {
  // A negative bound turns every lane with a nonzero output into a reported
  // failure, so the residual and threshold bits of (nearly) every lane are
  // compared, not just those of the lanes a fault trips.
  const ErrorBoundParams report_all{-1.0, -1.0};
  std::uint64_t seed = 300;
  for (const TileConfig& tile : candidate_tiles()) {
    for (const GemmShape& shape :
         {GemmShape{70, 90, 40}, GemmShape{16, 512, 64}, GemmShape{1, 37, 50}}) {
      const Case cs = make_case(shape, tile, Corruption::none, ++seed);
      for (const auto side :
           {ThreadAbftSide::one_sided, ThreadAbftSide::two_sided}) {
        SCOPED_TRACE(tile.name() + " m" + std::to_string(shape.m) +
                     (side == ThreadAbftSide::one_sided ? " one" : " two"));
        const auto want =
            reference_check(tile, side, cs.a, cs.b, cs.c, report_all);
        ASSERT_GT(want.failures.size(), 0u);
        ThreadLevelAbft online(tile, side, report_all);
        expect_same(want, online.check(cs.a, cs.b, cs.c));
        ThreadLevelAbft prepared(tile, side, report_all);
        prepared.prepare(cs.b);
        expect_same(want, prepared.check(cs.a, cs.b, cs.c));
      }
    }
  }
}

TEST(ThreadCheckOracle, RepeatedPreparedChecksAgree) {
  // The scratch buffers a check reuses carry nothing from one call into
  // the next: alternating clean and faulty outputs through one prepared
  // checker gives the reference answer every time.
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  const GemmShape shape{97, 70, 45};
  const Case clean = make_case(shape, tile, Corruption::none, 7);
  const Case faulty = make_case(shape, tile, Corruption::non_finite, 7);
  ThreadLevelAbft checker(tile, ThreadAbftSide::one_sided);
  checker.prepare(clean.b);
  for (int round = 0; round < 3; ++round) {
    const Case& cs = round % 2 == 0 ? faulty : clean;
    expect_same(
        reference_check(tile, ThreadAbftSide::one_sided, cs.a, cs.b, cs.c),
        checker.check(cs.a, cs.b, cs.c));
  }
}

TEST(ThreadCheckOracle, ReplicationReportsFailuresInGridOrder) {
  // Replication shares the grid walk; its per-block slots must merge in
  // grid order whatever order the pool finished them in.
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  const GemmShape shape{70, 90, 24};
  const Case cs = make_case(shape, tile, Corruption::non_finite, 11);
  for (const auto kind :
       {ReplicationKind::traditional, ReplicationKind::single_accumulation}) {
    const auto res = ThreadReplication(tile, kind).check(cs.a, cs.b, cs.c);
    ASSERT_GE(res.failures.size(), 4u);
    for (std::size_t i = 1; i < res.failures.size(); ++i) {
      const auto& p = res.failures[i - 1];
      const auto& q = res.failures[i];
      EXPECT_LE(std::make_tuple(p.block_row, p.block_col, p.warp_m, p.warp_n,
                                p.lane),
                std::make_tuple(q.block_row, q.block_col, q.warp_m, q.warp_n,
                                q.lane));
    }
  }
}

TEST(SkinnyProduct, EveryVariantMatchesScalarChains) {
  Rng rng(5);
  for (const auto& variant : skinny_product_variants()) {
    SCOPED_TRACE(variant.isa);
    for (const std::int64_t rows : {1, 3, 8, 13}) {
      for (const std::int64_t cols : {1, 4, 7, 8, 12, 16, 20, 36}) {
        for (const std::int64_t k : {1, 9, 64}) {
          const std::int64_t ldl = k + 3, lds = cols + 2, ldd = cols + 1;
          std::vector<double> l(static_cast<std::size_t>(rows * ldl));
          std::vector<double> s(static_cast<std::size_t>(k * lds));
          for (auto& x : l) x = rng.uniform(-2.0, 2.0);
          for (auto& x : s) x = rng.uniform(-8.0, 8.0);
          std::vector<double> got(static_cast<std::size_t>(rows * ldd), -1.0);
          // In two calls, the second continuing the first's chains.
          const std::int64_t k1 = k / 3;
          variant.fn({l.data(), ldl, s.data(), lds, got.data(), ldd, rows,
                      cols, k1});
          variant.fn({l.data() + k1, ldl, s.data() + k1 * lds, lds,
                      got.data(), ldd, rows, cols, k - k1, true});
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t j = 0; j < cols; ++j) {
              double want = 0.0;
              for (std::int64_t kk = 0; kk < k; ++kk) {
                const double prod = l[static_cast<std::size_t>(r * ldl + kk)] *
                                    s[static_cast<std::size_t>(kk * lds + j)];
                want = want + prod;
              }
              ASSERT_EQ(std::bit_cast<std::uint64_t>(want),
                        std::bit_cast<std::uint64_t>(
                            got[static_cast<std::size_t>(r * ldd + j)]))
                  << "rows " << rows << " cols " << cols << " k " << k
                  << " at (" << r << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(SkinnyProduct, KBlockedDispatchMatchesScalarChains) {
  // Long enough in k for skinny_product to split it into cache blocks.
  Rng rng(6);
  for (const std::int64_t cols : {4, 20, 252}) {
    const std::int64_t rows = 3, k = 5000;
    std::vector<double> l(static_cast<std::size_t>(rows * k));
    std::vector<double> s(static_cast<std::size_t>(k * cols));
    for (auto& x : l) x = rng.uniform(-2.0, 2.0);
    for (auto& x : s) x = rng.uniform(-8.0, 8.0);
    std::vector<double> got(static_cast<std::size_t>(rows * cols));
    skinny_product({l.data(), k, s.data(), cols, got.data(), cols, rows, cols,
                    k});
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < cols; ++j) {
        double want = 0.0;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const double prod = l[static_cast<std::size_t>(r * k + kk)] *
                              s[static_cast<std::size_t>(kk * cols + j)];
          want = want + prod;
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want),
                  std::bit_cast<std::uint64_t>(
                      got[static_cast<std::size_t>(r * cols + j)]))
            << "cols " << cols << " at (" << r << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace aift
