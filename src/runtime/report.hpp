#pragma once
// Human-readable reports for pipeline plans (per-layer tables and model
// summaries), used by the examples and the benchmark harness.

#include "common/table.hpp"
#include "runtime/pipeline.hpp"

namespace aift {

/// Per-layer table: name, GEMM dims, intensity, bound class, scheme,
/// T_o, T_r, overhead.
[[nodiscard]] Table plan_table(const InferencePlan& plan);

/// One-line summary: "<model> on <device>: <policy> overhead X% ...".
[[nodiscard]] std::string plan_summary(const InferencePlan& plan);

/// Where measurement disagrees with the analytic model, per layer.
struct DivergenceRow {
  std::string layer;
  GemmShape gemm;
  Scheme scheme = Scheme::none;  ///< the scheme the plan deployed

  double analytic_intensity = 0.0;      ///< paper AI (operand-byte based)
  bool analytic_bandwidth_bound = false;  ///< Equation 1 vs datasheet CMR
  double measured_ai = 0.0;             ///< counter-derived AI when covered
  bool measured_memory_bound = false;   ///< measured roofline classification
  bool bound_diverges = false;

  TileConfig analytic_tile;  ///< best tile per the analytic sweep
  TileConfig measured_tile;  ///< best tile per the calibration table
  bool tile_covered = false;  ///< the sweep measured this (shape, scheme)
  bool tile_diverges = false;
};

struct DivergenceReport {
  std::vector<DivergenceRow> rows;
  int covered = 0;          ///< rows with measured tile data
  int bound_divergent = 0;  ///< measured vs analytic bound class disagrees
  int tile_divergent = 0;   ///< measured vs analytic best tile disagrees

  /// Fraction of layers where measured and analytic bound classification
  /// agree (1.0 when the plan is empty).
  [[nodiscard]] double bound_agreement_rate() const {
    return rows.empty() ? 1.0
                        : 1.0 - static_cast<double>(bound_divergent) /
                                    static_cast<double>(rows.size());
  }
};

/// Compares a compiled plan layer by layer against a measured
/// CalibrationTable: bound classification (analytic Equation 1 vs the
/// measured roofline) and best tile (analytic sweep vs measured-fastest).
/// Layers the sweep did not cover report tile_covered == false and judge
/// the bound class from their paper intensity against the measured peaks.
[[nodiscard]] DivergenceReport divergence_report(const GemmCostModel& model,
                                                 const InferencePlan& plan,
                                                 const CalibrationTable& calib);

/// Per-layer divergence table: bound class and best tile, measured vs
/// analytic, with disagreements flagged.
[[nodiscard]] Table divergence_table(const DivergenceReport& report);

}  // namespace aift
