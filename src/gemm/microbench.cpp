#include "gemm/microbench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "gemm/functional.hpp"

namespace aift {
namespace {

// FLOPs of one m16n8k8 MMA: 2 * 16 * 8 * 8.
constexpr double kFlopsPerMma =
    2.0 * MmaShape::kM * MmaShape::kN * MmaShape::kK;

MeasurementSample measure_wall_clock(const MicrobenchPoint& p,
                                     const WallClockOptions& opts) {
  MeasurementSample s;
  // The functional executor computes in FP16/FP32; other dtypes have no
  // real kernel to time — report "cannot measure" instead of timing a
  // kernel that does not exist (rocm-perf-lab failure semantics).
  if (p.dtype != DType::f16 || !p.tile.valid() || p.shape.m <= 0 ||
      p.shape.n <= 0 || p.shape.k <= 0 || p.batch_rows < 1) {
    return s;
  }

  const std::int64_t rows = p.shape.m * p.batch_rows;
  Matrix<half_t> a(rows, p.shape.k);
  Matrix<half_t> b(p.shape.k, p.shape.n);
  Matrix<half_t> c(rows, p.shape.n);
  Rng rng(opts.seed);
  rng.fill_uniform(a);
  rng.fill_uniform(b);

  // Pack B once, timed separately: steady-state serving never re-packs
  // (the session packs at construction), so the timed repeats below run
  // the packed fast path and the one-shot conversion cost is reported in
  // pack_us rather than folded into elapsed_us.
  // wall_clock_measure IS the sanctioned real-time seam: measuring the
  // device is this function's whole job, and calibration artifacts (not
  // live clock reads) are what planning consumes downstream.
  using clock = std::chrono::steady_clock;
  const auto pack_t0 = clock::now();  // aift-lint: allow(nondeterminism)
  const PackedOperand packed = pack_operand(b, p.tile);
  const auto pack_t1 = clock::now();  // aift-lint: allow(nondeterminism)
  s.pack_us =
      std::chrono::duration<double, std::micro>(pack_t1 - pack_t0).count();

  // Warm-up pass, doubling as the counter collection. batch_rows stacked
  // requests are one GEMM over the stacked rows (stacking bit-identity).
  GemmCounters counters;
  {
    FunctionalOptions fopts;
    fopts.counters = &counters;
    functional_gemm(a, packed, c, p.tile, fopts);
  }

  double best_us = std::numeric_limits<double>::infinity();
  double worst_us = 0.0;
  for (int r = 0; r < std::max(1, opts.repeats); ++r) {
    const auto t0 = clock::now();  // aift-lint: allow(nondeterminism)
    functional_gemm(a, packed, c, p.tile);
    const auto t1 = clock::now();  // aift-lint: allow(nondeterminism)
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    best_us = std::min(best_us, us);
    worst_us = std::max(worst_us, us);
  }
  if (!(best_us > 0.0) || !std::isfinite(best_us)) return s;

  s.elapsed_us = best_us;
  s.noise_frac = (worst_us - best_us) / best_us;
  // FLOPs from the executor's own MMA counter (edge tiles execute full
  // predicated MMAs, exactly like the GPU kernel); bytes = operand reads
  // plus the counted FP16 stores. Stacked requests share B, so it is read
  // once for the whole stack.
  const double esize = dtype_bytes(DType::f16);
  s.flops = static_cast<double>(counters.mmas) * kFlopsPerMma;
  s.bytes = (static_cast<double>(rows) * p.shape.k +
             static_cast<double>(p.shape.k) * p.shape.n) *
                esize +
            static_cast<double>(counters.fp16_stores) * esize;
  s.ok = s.noise_frac <= opts.max_noise_frac;
  return s;
}

}  // namespace

MeasureFn wall_clock_measure(const WallClockOptions& opts) {
  return [opts](const MicrobenchPoint& p) {
    return measure_wall_clock(p, opts);
  };
}

MeasureFn cost_model_measure(const GemmCostModel& model, AbftOptions opts) {
  return [&model, opts](const MicrobenchPoint& p) {
    MeasurementSample s;
    if (!p.tile.valid() || p.shape.m <= 0 || p.shape.n <= 0 ||
        p.shape.k <= 0 || p.batch_rows < 1) {
      return s;
    }
    const GemmShape problem{p.shape.m * p.batch_rows, p.shape.n, p.shape.k};
    const RedundancyDelta delta =
        p.scheme == Scheme::none
            ? RedundancyDelta{}
            : scheme_delta(p.scheme, problem, p.tile, p.dtype, model.device(),
                           opts);
    const KernelCost cost = model.estimate(problem, p.tile, p.dtype, delta);
    if (!std::isfinite(cost.total_us)) return s;  // does not fit the device
    s.elapsed_us = cost.total_us;
    s.flops = cost.tensor_flops;
    s.bytes = cost.dram_bytes;
    s.noise_frac = 0.0;
    s.ok = s.elapsed_us > 0.0;
    return s;
  };
}

std::vector<MicrobenchPoint> sweep_points(const std::vector<GemmShape>& shapes,
                                          const std::vector<Scheme>& schemes,
                                          DType dtype,
                                          std::int64_t batch_rows) {
  AIFT_CHECK(batch_rows >= 1);
  std::vector<MicrobenchPoint> out;
  out.reserve(shapes.size() * schemes.size() * candidate_tiles().size());
  for (const GemmShape& shape : shapes) {
    for (const Scheme scheme : schemes) {
      for (const TileConfig& tile : candidate_tiles()) {
        out.push_back(MicrobenchPoint{shape, tile, scheme, dtype, batch_rows});
      }
    }
  }
  return out;
}

std::vector<MeasuredPoint> run_microbench(
    const std::vector<MicrobenchPoint>& points, const MeasureFn& measure) {
  AIFT_CHECK_MSG(static_cast<bool>(measure),
                 "run_microbench needs a measurement source");
  std::vector<MeasuredPoint> out;
  out.reserve(points.size());
  for (const MicrobenchPoint& p : points) {
    MeasuredPoint mp;
    mp.point = p;
    mp.sample = measure(p);
    if (mp.sample.ok && mp.sample.elapsed_us > 0.0) {
      const double sec = mp.sample.elapsed_us * 1.0e-6;
      mp.achieved_flops_per_sec = mp.sample.flops / sec;
      mp.achieved_bytes_per_sec = mp.sample.bytes / sec;
      // AI = FLOPs/bytes, defined as 0 when bytes == 0 — never a division
      // error (rocm-perf-lab §5).
      mp.ai = mp.sample.bytes > 0.0 ? mp.sample.flops / mp.sample.bytes : 0.0;
    }
    out.push_back(mp);
  }
  return out;
}

}  // namespace aift
