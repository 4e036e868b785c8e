#pragma once
// Measured-calibration microbenchmark harness (ROADMAP item 3).
//
// The analytic cost model (gemm/cost_model) predicts kernel times from
// datasheet peaks scaled by hand-tuned efficiency fractions
// (gemm/calibration.hpp). This harness grounds those constants in
// *measurement*: it times the real functional GEMM executor (and its
// batched/stacked variant) over a sweep of (shape, tile, scheme) points
// and reports achieved FLOP/s and bytes/s per point, from which
// fit_calibration (gemm/calibration.hpp) derives measured device ceilings
// — the spirit of LARM's per-topology roofline probes and rocm-perf-lab's
// counter-based FLOP/byte accounting.
//
// Measurement is *injectable*: every sweep runs through a MeasureFn, so
// tests, determinism suites and planners can substitute a deterministic
// source (cost_model_measure, or any custom fake) for the wall clock.
// Plan compilation against a calibration built from an injected source is
// bit-exact at any worker count; only wall_clock_measure is nondeterministic.
//
// FLOP/byte accounting follows rocm-perf-lab: FLOPs come from the
// executor's own MMA counters (2*16*8*8 per m16n8k8 MMA — predicated edge
// tiles do full-tile work, exactly what the GPU would execute), bytes from
// the operand reads plus the counted FP16 stores. Arithmetic intensity is
// FLOPs/bytes with AI defined as 0 when bytes == 0 (never a division
// error). A failed or over-noisy measurement yields ok = false and the
// fitter degrades gracefully rather than aborting — the measured table
// simply reports itself uncalibrated.

#include <functional>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/cost_model.hpp"
#include "gemm/gemm_shape.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

/// One point of the calibration sweep.
struct MicrobenchPoint {
  GemmShape shape;
  TileConfig tile;
  Scheme scheme = Scheme::none;
  DType dtype = DType::f16;
  /// > 1 measures one functional_gemm over this many row-stacked requests
  /// of `shape`, the stacked GEMM the batched executor runs.
  std::int64_t batch_rows = 1;
};

/// What one measurement produced. `ok == false` means the source could not
/// measure this point (or the repeats were too noisy to trust) — the
/// rocm-perf-lab "roofline: null" failure semantics.
struct MeasurementSample {
  double elapsed_us = 0.0;  ///< best-of-repeats steady-state execution time
  double flops = 0.0;       ///< FLOPs executed (from MMA counters)
  double bytes = 0.0;       ///< memory traffic (operand reads + stores)
  double noise_frac = 0.0;  ///< (max-min)/min across repeats
  /// One-shot cost of packing the B operand (gemm/packed_operand), paid
  /// once per (weights, tile) and excluded from elapsed_us: the serving
  /// engine packs at session construction, so steady-state kernel time is
  /// what the roofline fit should see. 0 for injected (non-wall-clock)
  /// sources.
  double pack_us = 0.0;
  bool ok = false;
};

/// A sweep point with its measurement and the derived roofline quantities.
struct MeasuredPoint {
  MicrobenchPoint point;
  MeasurementSample sample;
  double achieved_flops_per_sec = 0.0;
  double achieved_bytes_per_sec = 0.0;
  /// FLOPs/bytes; 0 when bytes == 0 (rocm-perf-lab §5).
  double ai = 0.0;
};

/// The injectable measurement source.
using MeasureFn = std::function<MeasurementSample(const MicrobenchPoint&)>;

struct WallClockOptions {
  /// Timed repetitions per point (best-of); one untimed warm-up run
  /// precedes them.
  int repeats = 3;
  /// Repeats whose spread (max-min)/min exceeds this yield ok = false.
  double max_noise_frac = 0.5;
  /// Seed for the deterministic operand fill.
  std::uint64_t seed = 0x5EED5EEDULL;
};

/// The real thing: times functional_gemm over the point's batch_rows
/// stacked requests with a steady clock.
/// The CPU executor emulates the *unprotected* kernel's arithmetic, so
/// scheme-specific in-kernel redundancy is not part of the measured time;
/// the scheme still keys the point so the fitter can attribute samples.
[[nodiscard]] MeasureFn wall_clock_measure(const WallClockOptions& opts = {});

/// Deterministic fake: "measures" exactly what `model` predicts (elapsed =
/// analytic total_us, FLOPs/bytes = the model's work accounting, noise 0).
/// `opts` parameterizes the per-scheme RedundancyDelta like the profiler
/// does. The model reference must outlive the returned function. Tests
/// wrap this (or model a ground-truth device with different CostParams) to
/// exercise the full measure -> fit -> autotune path bit-exactly.
[[nodiscard]] MeasureFn cost_model_measure(const GemmCostModel& model,
                                           AbftOptions opts = {});

/// The cross product sweep: every candidate tile that fits a plausible
/// device, for every scheme in `schemes`, for every shape. Tiles are taken
/// from candidate_tiles() — the same enumeration the profiler sweeps.
[[nodiscard]] std::vector<MicrobenchPoint> sweep_points(
    const std::vector<GemmShape>& shapes, const std::vector<Scheme>& schemes,
    DType dtype = DType::f16, std::int64_t batch_rows = 1);

/// Runs `measure` over every point and derives the roofline quantities.
/// Points the source rejects (ok == false) are kept — with zeroed derived
/// fields — so callers can report coverage honestly.
[[nodiscard]] std::vector<MeasuredPoint> run_microbench(
    const std::vector<MicrobenchPoint>& points, const MeasureFn& measure);

}  // namespace aift
