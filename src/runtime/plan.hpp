#pragma once
// The compiled inference plan — the "plan" stage of the plan -> compile ->
// execute split.
//
// compile_plan lowers every linear layer of a model to its GEMM shape, the
// scheme selected by the deployment policy, the best profiled tile
// configuration, and the checker configuration, once per (model, device,
// policy, dtype) — the paper's "profile once before deployment" step
// (§5.3/§6.2). The resulting InferencePlan is a passive artifact: the
// analytics layers (runtime/report, runtime/recovery) aggregate it, and
// runtime/session executes it with real functional GEMMs and checks.
//
// Aggregated times follow the paper's evaluation: per-layer T_o and T_r
// summed across layers (valid because each layer must finish before the
// next starts).

#include <optional>
#include <string>
#include <vector>

#include "core/intensity_guided.hpp"
#include "nn/model.hpp"

namespace aift {

/// Deployment-wide protection policy. Fixed policies apply one scheme to
/// every layer (the paper's baselines); intensity_guided selects per layer.
enum class ProtectionPolicy {
  none,
  global_abft,
  thread_level,       ///< one-sided thread-level ABFT everywhere
  thread_two_sided,
  repl_traditional,
  repl_single_acc,
  intensity_guided,
};

/// Every policy, in declaration order.
[[nodiscard]] const std::vector<ProtectionPolicy>& all_policies();

[[nodiscard]] const char* policy_name(ProtectionPolicy p);
/// Inverse of policy_name; nullopt for unknown names.
[[nodiscard]] std::optional<ProtectionPolicy> policy_by_name(
    const std::string& name);

/// One layer lowered to its executable form.
struct LayerPlanEntry {
  LayerDesc layer;
  double intensity = 0.0;
  bool bandwidth_bound = false;
  SchemeProfile profile;  ///< chosen scheme with T_o / T_r / overhead

  [[nodiscard]] Scheme scheme() const { return profile.scheme; }
  /// Tile configuration the executor runs the layer with (the profiled
  /// protected tile; equals the base tile when the scheme is none). The
  /// thread-level checkers replay tile-structured arithmetic, so checker
  /// and executor must agree on this.
  [[nodiscard]] const TileConfig& exec_tile() const {
    return profile.redundant.tile;
  }
};

struct InferencePlan {
  std::string model_name;
  std::string device_name;
  ProtectionPolicy policy = ProtectionPolicy::none;
  DType dtype = DType::f16;
  /// Checker tunables the plan was compiled with (num_checksums etc.);
  /// the session builds its checkers from these.
  AbftOptions abft_options;
  std::vector<LayerPlanEntry> entries;

  double total_base_us = 0.0;       ///< sum of per-layer T_o
  double total_protected_us = 0.0;  ///< sum of per-layer T_r

  [[nodiscard]] double overhead_pct() const {
    return total_base_us > 0.0
               ? (total_protected_us - total_base_us) / total_base_us * 100.0
               : 0.0;
  }
  /// Layers protected by each scheme (reporting).
  [[nodiscard]] int count_scheme(Scheme s) const;
};

/// Compiles `m` under `policy`: layers with identical profiling identity
/// (GEMM shape + fusion context) are deduplicated through `cache` (when
/// non-null) and profiled across the worker pool. Output is bit-identical
/// to compile_plan_serial with or without a cache — profiling is a pure
/// function of the key and totals are accumulated in layer order.
///
/// `calib` (optional) installs a measured CalibrationTable: layers whose
/// GEMM the table covers get the measured-fastest tile (and, under the
/// intensity_guided policy, measured scheme ranking) instead of the
/// analytic sweep — per-device autotuning. An uncalibrated or null table
/// changes nothing. Compilation stays bit-identical serial vs parallel:
/// the table is read-only and its lookups are pure.
[[nodiscard]] InferencePlan compile_plan(const GemmCostModel& model,
                                         const Model& m,
                                         ProtectionPolicy policy,
                                         DType dtype = DType::f16,
                                         const AbftOptions& opts = {},
                                         ProfileCache* cache = nullptr,
                                         const CalibrationTable* calib = nullptr);

/// Single-threaded reference compiler (determinism tests, baselines).
[[nodiscard]] InferencePlan compile_plan_serial(const GemmCostModel& model,
                                                const Model& m,
                                                ProtectionPolicy policy,
                                                DType dtype = DType::f16,
                                                const AbftOptions& opts = {},
                                                ProfileCache* cache = nullptr,
                                                const CalibrationTable* calib = nullptr);

}  // namespace aift
