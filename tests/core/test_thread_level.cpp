// Functional thread-level ABFT tests (paper §5.1–§5.2): per-thread checks
// over the PTX thread tiles, one-sided and two-sided, with localization.

#include "core/thread_level_abft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"
#include "gemm/functional.hpp"

namespace aift {
namespace {

struct Env {
  GemmShape shape;
  TileConfig tile;
  Matrix<half_t> a, b, c;

  Env(GemmShape s, TileConfig t, std::uint64_t seed = 42,
      std::vector<FaultSpec> faults = {})
      : shape(s), tile(t), a(s.m, s.k), b(s.k, s.n), c(s.m, s.n) {
    Rng rng(seed);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    FunctionalOptions opts;
    opts.faults = std::move(faults);
    functional_gemm(a, b, c, tile, opts);
  }
};

struct Combo {
  GemmShape shape;
  TileConfig tile;
  ThreadAbftSide side;
};

class ThreadAbftParam : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    SidesShapesTiles, ThreadAbftParam,
    ::testing::Values(
        Combo{{64, 64, 64}, {64, 64, 32, 32, 32, 2}, ThreadAbftSide::one_sided},
        Combo{{64, 64, 64}, {64, 64, 32, 32, 32, 2}, ThreadAbftSide::two_sided},
        Combo{{128, 128, 64}, {128, 128, 32, 64, 64, 2}, ThreadAbftSide::one_sided},
        Combo{{128, 128, 64}, {128, 128, 32, 64, 64, 2}, ThreadAbftSide::two_sided},
        Combo{{96, 80, 48}, {32, 32, 32, 16, 16, 2}, ThreadAbftSide::one_sided},
        Combo{{96, 80, 48}, {32, 32, 32, 16, 16, 2}, ThreadAbftSide::two_sided},
        Combo{{50, 30, 70}, {64, 32, 32, 32, 16, 2}, ThreadAbftSide::one_sided},
        Combo{{50, 30, 70}, {64, 32, 32, 32, 16, 2}, ThreadAbftSide::two_sided},
        Combo{{8, 256, 512}, {16, 64, 32, 16, 16, 2}, ThreadAbftSide::one_sided},
        Combo{{8, 256, 512}, {16, 64, 32, 16, 16, 2}, ThreadAbftSide::two_sided}),
    [](const auto& info) {
      const auto& c = info.param;
      return std::string(c.side == ThreadAbftSide::one_sided ? "one" : "two") +
             "_m" + std::to_string(c.shape.m) + "n" + std::to_string(c.shape.n) +
             "k" + std::to_string(c.shape.k);
    });

TEST_P(ThreadAbftParam, NoFalsePositiveOnCleanOutput) {
  const auto& p = GetParam();
  Env env(p.shape, p.tile);
  ThreadLevelAbft abft(p.tile, p.side);
  const auto res = abft.check(env.a, env.b, env.c);
  EXPECT_FALSE(res.fault_detected);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_GT(res.threads_checked, 0);
}

TEST_P(ThreadAbftParam, DetectsInjectedFault) {
  const auto& p = GetParam();
  const std::int64_t fr = p.shape.m / 2, fc = p.shape.n / 3;
  Env env(p.shape, p.tile, 42, {FaultSpec{fr, fc, -1, 0x20000000u}});
  ThreadLevelAbft abft(p.tile, p.side);
  const auto res = abft.check(env.a, env.b, env.c);
  ASSERT_TRUE(res.fault_detected);
  ASSERT_FALSE(res.failures.empty());

  // Localization: the failing thread's warp must contain the fault site.
  const auto& f = res.failures.front();
  const std::int64_t warp_r0 = f.block_row * p.tile.mb + f.warp_m * p.tile.mw;
  const std::int64_t warp_c0 = f.block_col * p.tile.nb + f.warp_n * p.tile.nw;
  EXPECT_GE(fr, warp_r0);
  EXPECT_LT(fr, warp_r0 + p.tile.mw);
  EXPECT_GE(fc, warp_c0);
  EXPECT_LT(fc, warp_c0 + p.tile.nw);
  // And the lane must be the PTX owner of the fault site.
  EXPECT_EQ(f.lane, p.tile.owner_lane(static_cast<int>(fr - warp_r0),
                                      static_cast<int>(fc - warp_c0)));
}

TEST_P(ThreadAbftParam, DetectsMidKFault) {
  const auto& p = GetParam();
  Env env(p.shape, p.tile, 43, {FaultSpec{1, 1, 1, 0x40000000u}});
  ThreadLevelAbft abft(p.tile, p.side);
  EXPECT_TRUE(abft.check(env.a, env.b, env.c).fault_detected);
}

TEST_P(ThreadAbftParam, PreparedCheckIsBitIdentical) {
  // prepare(b) hoists the per-lane Bt checksums to construction time; the
  // residuals and thresholds of a prepared check must equal the online
  // check's to the last bit (same sums in the same order), on clean and
  // faulty outputs alike.
  const auto& p = GetParam();
  for (const bool faulty : {false, true}) {
    Env env(p.shape, p.tile, 44,
            faulty ? std::vector<FaultSpec>{FaultSpec{0, 0, -1, 0x02000000u}}
                   : std::vector<FaultSpec>{});
    ThreadLevelAbft online(p.tile, p.side);
    ThreadLevelAbft prepared(p.tile, p.side);
    prepared.prepare(env.b);
    ASSERT_TRUE(prepared.prepared());
    ASSERT_FALSE(online.prepared());

    auto lhs = online.check(env.a, env.b, env.c);
    auto rhs = prepared.check(env.a, env.b, env.c);
    // Both sides report failures in grid order already; sorting keeps the
    // comparison about values, not order (test_thread_check_oracle pins
    // the order).
    const auto grid_order = [](const ThreadCheckFailure& x,
                               const ThreadCheckFailure& y) {
      return std::tie(x.block_row, x.block_col, x.warp_m, x.warp_n, x.lane,
                      x.row) <
             std::tie(y.block_row, y.block_col, y.warp_m, y.warp_n, y.lane,
                      y.row);
    };
    std::sort(lhs.failures.begin(), lhs.failures.end(), grid_order);
    std::sort(rhs.failures.begin(), rhs.failures.end(), grid_order);
    EXPECT_EQ(lhs.fault_detected, rhs.fault_detected);
    EXPECT_EQ(lhs.threads_checked, rhs.threads_checked);
    ASSERT_EQ(lhs.failures.size(), rhs.failures.size());
    for (std::size_t i = 0; i < lhs.failures.size(); ++i) {
      const auto& lf = lhs.failures[i];
      const auto& rf = rhs.failures[i];
      EXPECT_EQ(lf.block_row, rf.block_row);
      EXPECT_EQ(lf.block_col, rf.block_col);
      EXPECT_EQ(lf.warp_m, rf.warp_m);
      EXPECT_EQ(lf.warp_n, rf.warp_n);
      EXPECT_EQ(lf.lane, rf.lane);
      EXPECT_EQ(lf.row, rf.row);
      EXPECT_EQ(lf.residual, rf.residual);    // exact, not approximate
      EXPECT_EQ(lf.threshold, rf.threshold);  // exact, not approximate
    }
  }
}

TEST(ThreadAbft, PreparedTableIgnoredForOtherDimensions) {
  // A table built for one operand must not serve a differently-shaped
  // check: the checker falls back to the online path and stays correct.
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Env big({64, 64, 64}, tile, 45);
  Env small({32, 32, 32}, tile, 46);
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);
  abft.prepare(big.b);
  const auto res = abft.check(small.a, small.b, small.c);
  EXPECT_FALSE(res.fault_detected);
  EXPECT_GT(res.threads_checked, 0);
}

TEST(ThreadAbft, OneSidedLocalizesRow) {
  const GemmShape shape{64, 64, 32};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile, 44, {FaultSpec{37, 22, -1, 0x20000000u}});
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);
  const auto res = abft.check(env.a, env.b, env.c);
  ASSERT_TRUE(res.fault_detected);
  // One-sided checks compare per owned row: the failure reports the exact
  // global row of the fault.
  EXPECT_EQ(res.failures.front().row, 37);
}

TEST(ThreadAbft, TwoSidedReportsScalarCheck) {
  const GemmShape shape{64, 64, 32};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile, 45, {FaultSpec{10, 10, -1, 0x20000000u}});
  ThreadLevelAbft abft(tile, ThreadAbftSide::two_sided);
  const auto res = abft.check(env.a, env.b, env.c);
  ASSERT_TRUE(res.fault_detected);
  EXPECT_EQ(res.failures.front().row, -1);  // thread-scalar check
}

TEST(ThreadAbft, ExactlyOneThreadFlagsSingleFault) {
  const GemmShape shape{128, 128, 64};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile, 46, {FaultSpec{77, 99, -1, 0x20000000u}});
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);
  const auto res = abft.check(env.a, env.b, env.c);
  EXPECT_EQ(res.failures.size(), 1u);  // fault is thread-local
}

TEST(ThreadAbft, ThreadsCheckedMatchesGrid) {
  const GemmShape shape{128, 128, 32};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile);
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);
  const auto res = abft.check(env.a, env.b, env.c);
  // 4 blocks x 4 warps x 32 lanes, all fully in-range.
  EXPECT_EQ(res.threads_checked, 4 * 4 * 32);
}

TEST(ThreadAbft, EdgeClippingNoFalsePositives) {
  // M, N far from tile multiples: threads with partially/fully clipped
  // tiles must neither crash nor flag.
  const GemmShape shape{70, 45, 30};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile, 47);
  for (const auto side :
       {ThreadAbftSide::one_sided, ThreadAbftSide::two_sided}) {
    ThreadLevelAbft abft(tile, side);
    const auto res = abft.check(env.a, env.b, env.c);
    EXPECT_FALSE(res.fault_detected);
  }
}

TEST(ThreadAbft, DetectsFaultInEdgeTile) {
  const GemmShape shape{70, 45, 30};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile, 48, {FaultSpec{69, 44, -1, 0x20000000u}});
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);
  EXPECT_TRUE(abft.check(env.a, env.b, env.c).fault_detected);
}

TEST(ThreadAbft, SweepFaultAcrossAllOwners) {
  // Every output position must be covered by some thread's check.
  const GemmShape shape{32, 32, 32};
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Env clean(shape, tile, 49);
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);
  for (std::int64_t r = 0; r < shape.m; r += 7) {
    for (std::int64_t cc = 0; cc < shape.n; cc += 5) {
      Matrix<half_t> c = clean.c;
      c(r, cc) = half_t(c(r, cc).to_float() + 50.0f);
      EXPECT_TRUE(abft.check(clean.a, clean.b, c).fault_detected)
          << "(" << r << "," << cc << ")";
    }
  }
}

TEST(ThreadAbft, TinyPerThreadFaultsDetectable) {
  // Thread-local sums are over only Nt values, so thresholds are far
  // tighter than global ABFT's whole-matrix sum: a fault that global ABFT
  // cannot distinguish from rounding is caught at thread level.
  const GemmShape shape{64, 64, 64};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Env env(shape, tile, 50);
  Matrix<half_t> c = env.c;
  const float bump = 0.5f;  // small vs the matrix, big vs a thread tile
  c(8, 8) = half_t(c(8, 8).to_float() + bump);
  ThreadLevelAbft thread_abft(tile, ThreadAbftSide::one_sided);
  EXPECT_TRUE(thread_abft.check(env.a, env.b, c).fault_detected);
}

TEST(ThreadAbft, RejectsInvalidTile) {
  EXPECT_THROW(ThreadLevelAbft(TileConfig{100, 64, 32, 64, 32, 2},
                               ThreadAbftSide::one_sided),
               std::logic_error);
}

TEST(ThreadAbft, AccessorsReflectConstruction) {
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  ThreadLevelAbft abft(tile, ThreadAbftSide::two_sided);
  EXPECT_EQ(abft.side(), ThreadAbftSide::two_sided);
  EXPECT_EQ(abft.tile(), tile);
}

}  // namespace
}  // namespace aift
