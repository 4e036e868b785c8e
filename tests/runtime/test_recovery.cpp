// Detect-and-re-execute recovery: analytic expectations and a functional
// retry demonstration (soft errors are transient, so re-execution yields a
// clean result).

#include "runtime/recovery.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"

namespace aift {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  GemmCostModel model_{devices::t4()};
  ProtectedPipeline pipe_{model_};
  InferencePlan plan_ = pipe_.plan(zoo::dlrm_mlp_bottom(1),
                                   ProtectionPolicy::intensity_guided);
};

TEST_F(RecoveryTest, ZeroFaultRateMeansNoRetries) {
  const auto a = analyze_recovery(plan_, 0.0);
  EXPECT_DOUBLE_EQ(a.expected_retry_us, 0.0);
  EXPECT_DOUBLE_EQ(a.expected_retries, 0.0);
  EXPECT_DOUBLE_EQ(a.expected_total_us(), plan_.total_protected_us);
}

TEST_F(RecoveryTest, RetryCostScalesWithFaultRate) {
  const auto low = analyze_recovery(plan_, 1e-6);
  const auto high = analyze_recovery(plan_, 1e-3);
  EXPECT_GT(high.expected_retry_us, low.expected_retry_us * 500);
  EXPECT_LT(low.expected_retry_us, plan_.total_protected_us * 1e-4);
}

TEST_F(RecoveryTest, GeometricRetryExpectation) {
  // p/(1-p) extra executions per layer.
  const double p = 0.01;
  const auto a = analyze_recovery(plan_, p);
  EXPECT_NEAR(a.expected_retries, plan_.entries.size() * p / (1 - p), 1e-12);
  EXPECT_NEAR(a.expected_retry_us,
              plan_.total_protected_us * p / (1 - p), 1e-6);
}

TEST_F(RecoveryTest, RareFaultsBarelyMoveExpectedLatency) {
  // At realistic soft-error rates the full fault-tolerance cost is the
  // detection overhead, not recovery — the paper's detection-first stance.
  const auto a = analyze_recovery(plan_, 1e-7);
  EXPECT_LT(a.expected_total_us() / plan_.total_protected_us, 1.0 + 1e-5);
}

TEST_F(RecoveryTest, RejectsInvalidProbability) {
  EXPECT_THROW((void)analyze_recovery(plan_, -0.1), std::logic_error);
  EXPECT_THROW((void)analyze_recovery(plan_, 1.0), std::logic_error);
}

TEST(RecoverySimulated, SessionRetriesCrossValidateExpectedRetryMath) {
  // Monte-Carlo cross-check of the analytic model against the real
  // executor: every layer execution (retries included) faults with
  // probability p, so measured mean retries per inference should approach
  // analyze_recovery's geometric expectation L * p/(1-p), less the small
  // truncation of the session's finite retry budget. Deterministic in the
  // fixed seed.
  ModelBuilder b("RetrySim", /*batch=*/2, /*in_features=*/16);
  b.linear("fc1", 16);
  b.linear("fc2", 8);
  const auto model = std::move(b).build();

  GemmCostModel cost(devices::t4());
  ProtectedPipeline pipe(cost);
  SessionOptions sopts;
  sopts.max_retries = 6;  // keep geometric truncation ≪ sampling error
  const InferenceSession session(
      pipe.plan(model, ProtectionPolicy::intensity_guided), sopts);

  const double p = 0.25;
  const int trials = 400;
  const auto sim = simulate_recovery(session, p, trials, /*seed=*/2024);

  EXPECT_EQ(sim.trials, trials);
  EXPECT_GT(sim.faulted_executions, 0);
  // High-bit faults are essentially always flagged; the rare exception is
  // a down-scaling flip of a near-zero partial accumulator, whose effect
  // sits below the checker's FP16 rounding threshold.
  EXPECT_LE(sim.undetected, sim.faulted_executions / 20);

  const auto analysis =
      analyze_recovery(session.plan(), p);
  EXPECT_NEAR(sim.mean_retries_per_inference, analysis.expected_retries,
              0.15 * analysis.expected_retries);
}

TEST(RecoverySimulated, ZeroProbabilityMeansZeroRetries) {
  ModelBuilder b("NoFaults", 2, 16);
  b.linear("fc", 8);
  const auto model = std::move(b).build();
  GemmCostModel cost(devices::t4());
  ProtectedPipeline pipe(cost);
  const InferenceSession session(
      pipe.plan(model, ProtectionPolicy::intensity_guided));
  const auto sim = simulate_recovery(session, 0.0, 20, 1);
  EXPECT_EQ(sim.faulted_executions, 0);
  EXPECT_EQ(sim.total_retries, 0);
  EXPECT_DOUBLE_EQ(sim.mean_retries_per_inference, 0.0);
}

TEST(RecoveryFunctional, RetryAfterDetectionYieldsCleanResult) {
  // Transient fault: first execution corrupted and flagged; re-execution
  // (fault gone) passes the check and matches the clean result.
  const GemmShape shape{64, 64, 64};
  const TileConfig tile{64, 64, 32, 32, 32, 2};
  Rng rng(5);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);

  Matrix<half_t> c(shape.m, shape.n);
  FunctionalOptions faulty;
  faulty.faults = {FaultSpec{10, 10, -1, 0x20000000u}};
  functional_gemm(a, b, c, tile, faulty);
  ASSERT_TRUE(abft.check(a, b, c).fault_detected);

  // Retry without the (transient) fault.
  functional_gemm(a, b, c, tile);
  EXPECT_FALSE(abft.check(a, b, c).fault_detected);

  Matrix<half_t> clean(shape.m, shape.n);
  functional_gemm(a, b, clean, tile);
  EXPECT_TRUE(c == clean);
}

TEST(RecoveryFunctional, RepeatedFaultsEventuallyRecovered) {
  // Even if several consecutive executions fault, the retry loop ends at
  // the first clean one.
  const GemmShape shape{32, 32, 32};
  const TileConfig tile{32, 32, 32, 16, 16, 2};
  Rng rng(6);
  Matrix<half_t> a(shape.m, shape.k), b(shape.k, shape.n);
  rng.fill_uniform(a);
  rng.fill_uniform(b);
  ThreadLevelAbft abft(tile, ThreadAbftSide::one_sided);

  int executions = 0;
  bool clean = false;
  for (int attempt = 0; attempt < 5 && !clean; ++attempt) {
    ++executions;
    Matrix<half_t> c(shape.m, shape.n);
    FunctionalOptions opts;
    if (attempt < 2) opts.faults = {FaultSpec{1, 1, -1, 0x40000000u}};
    functional_gemm(a, b, c, tile, opts);
    clean = !abft.check(a, b, c).fault_detected;
  }
  EXPECT_TRUE(clean);
  EXPECT_EQ(executions, 3);  // two faulty attempts, one clean
}

}  // namespace
}  // namespace aift
