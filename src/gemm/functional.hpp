#pragma once
// Functional executor for the hierarchical tensor-core GEMM.
//
// Emulates exactly what the cost model prices: the kernel is decomposed
// into threadblock tiles, each of which walks the K dimension in kb slabs
// of m16n8k8 MMAs, accumulating in FP32 and storing FP16 (paper §2.1).
// Threadblocks are executed in parallel on CPU workers. Faults (paper
// §2.3: a single faulty output value caused by an error in processing
// logic) are injected by XOR-ing bits into a chosen FP32 accumulator after
// a chosen k8-step, then propagate naturally to the stored output.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "gemm/gemm_shape.hpp"
#include "gemm/packed_operand.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

/// One injected fault. Coordinates address the output element whose
/// accumulator is corrupted; k8_step selects when (-1 = after the final
/// accumulation, i.e. corrupt the finished value before the store).
struct FaultSpec {
  std::int64_t row = 0;
  std::int64_t col = 0;
  std::int64_t k8_step = -1;
  std::uint32_t xor_bits = 0x00400000u;  // flip a high mantissa bit
};

/// Execution counters used to cross-check the analytic per-scheme op
/// counts of Table 1 and to validate the cost model's work accounting.
struct GemmCounters {
  std::int64_t mmas = 0;
  std::int64_t k8_steps = 0;
  std::int64_t blocks = 0;
  std::int64_t fp16_stores = 0;
};

struct FunctionalOptions {
  bool parallel = true;
  /// Faults to inject, in C coordinates. A fault whose row or column lies
  /// past the output lands in tile padding and never reaches a store.
  std::vector<FaultSpec> faults;
  GemmCounters* counters = nullptr;
  /// Extra independent work items co-scheduled with the GEMM threadblocks
  /// in the same parallel region: extra_task(t) runs once for each t in
  /// [0, extra_tasks) on the worker pool, interleaved with the blocks. The
  /// batched executor drains the previous layer's deferred ABFT
  /// verifications here, hiding their cost behind this GEMM (§2.5 step 5).
  /// Tasks must write disjoint state; execution order is unspecified.
  std::int64_t extra_tasks = 0;
  std::function<void(std::int64_t)> extra_task;
};

/// The B operand (K x N) of functional_gemm, in either layout: an FP16
/// matrix, converted to a padded FP32 copy on every call, or a
/// PackedOperand converted once ahead of time (gemm/packed_operand.hpp).
/// A non-owning view that converts implicitly from both, so a caller
/// passes whichever it holds. The two layouts are bit-identical —
/// outputs, counters and fault semantics — because packing changes
/// operand layout, never the K decomposition (CTest-pinned).
struct GemmOperand {
  GemmOperand(const Matrix<half_t>& b) : matrix(&b) {}
  GemmOperand(const PackedOperand& b) : packed(&b) {}

  [[nodiscard]] std::int64_t rows() const {
    return packed != nullptr ? packed->rows : matrix->rows();
  }
  [[nodiscard]] std::int64_t cols() const {
    return packed != nullptr ? packed->cols : matrix->cols();
  }

  const Matrix<half_t>* matrix = nullptr;
  const PackedOperand* packed = nullptr;
};

/// C (M x N) = A (M x K, FP16) * B (K x N, FP16), FP32 accumulation.
/// Defined for Out = half_t, which stores FP16 (round-to-nearest-even),
/// and Out = float, which keeps the raw FP32 accumulators for tests that
/// verify accumulation in isolation. Out-of-range reads behave as zero
/// padding; the tile grid covers ceil dims like a predicated GPU kernel.
///
/// Stacking: A may hold several requests' activation rows stacked
/// vertically, all sharing B, and each request's band of C is
/// bit-identical to running its GEMM alone. An output element's FP32
/// accumulation order depends only on the K decomposition (kb slabs of k8
/// MMA steps), never on M, the row's position in the grid, or which
/// threadblock computes it. Stacking amortizes the threadblock padding
/// that dominates small-M serving shapes (an M=1 request still pays a full
/// mb-row tile). A stacked request's faults are the caller's to shift
/// into its row band (ContinuousBatch does).
template <typename Out>
void functional_gemm(const Matrix<half_t>& a, GemmOperand b, Matrix<Out>& c,
                     const TileConfig& tile,
                     const FunctionalOptions& opts = {});

/// Naive double-precision reference (no tiling, no FP16 store) for tests.
Matrix<float> reference_gemm(const Matrix<half_t>& a, const Matrix<half_t>& b);

}  // namespace aift
