#pragma once
// The fault-free inner kernel of the functional GEMM (gemm/functional.cpp):
// one threadblock's accumulator tile, computed in register-blocked
// micro-tiles of MR rows x 8·NR columns. Each B row fragment a micro-tile
// loads is reused across its MR rows, and each A value across its 8·NR
// columns.
//
// Every output is its own chain, the one the scalar fault path walks:
//   acc = 0.0f;  for k ascending: p = A(r, k) * B(k, c);  acc = acc + p;
// with the multiply and the add rounded separately (never an FMA; see
// round_alone in common/simd.hpp). The SIMD variants run 4, 8 or 16 such
// chains per register side by side, one per output column, so every
// variant and every micro-tile shape is bit-identical to the scalar form.
//
// B is read through panel base pointers and two strides, so the packed
// layout (k-major 8-column panels: panel stride kpad·8, k stride 8) and
// the raw padded copy (panel stride 8, k stride npad) share the kernel.

#include <cstdint>
#include <vector>

#include "common/simd.hpp"

namespace aift {

struct GemmBlockArgs {
  const float* a = nullptr;  ///< the block's first A row; rows lda apart
  std::int64_t lda = 0;
  const float* b = nullptr;  ///< B(0, the block's first column)
  std::int64_t panel_stride = 0;  ///< floats between adjacent 8-col panels
  std::int64_t k_stride = 0;      ///< floats between B(k, c) and B(k+1, c)
  float* c = nullptr;  ///< the block's FP32 accumulator tile; rows ldc apart
  std::int64_t ldc = 0;
  /// Rows and 8-column panels to compute, each rounded up to whole
  /// micro-tiles; both rounded extents stay inside the block, which is a
  /// whole number of 16-row groups and `block_panels` panels wide. Rows
  /// and columns past them are neither read nor written.
  std::int64_t rows = 0;
  std::int64_t panels = 0;
  std::int64_t block_panels = 0;
  std::int64_t k = 0;  ///< chain length (the padded K)
};

using GemmBlockFn = void (*)(const GemmBlockArgs&);
using GemmKernelVariant = IsaVariant<GemmBlockFn>;

/// Every variant this CPU can run, fastest first.
[[nodiscard]] std::vector<GemmKernelVariant> gemm_kernel_variants();

/// gemm_kernel_variants().front(), looked up once.
[[nodiscard]] GemmBlockFn best_gemm_kernel();

}  // namespace aift
