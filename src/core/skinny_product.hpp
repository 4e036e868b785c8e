#pragma once
// D = L · S for a tall L and a skinny S: the redundant products of
// thread-level ABFT (core/thread_level_abft). L holds decoded A rows (or,
// two-sided, per-lane A row checksums) and S the per-lane B column
// checksums, both in double.
//
// Every output is its own chain, the one the scalar check always ran:
//   d = 0.0;  for k ascending: p = L(r, k) * S(k, j);  d = d + p;
// with the multiply and the add rounded separately (never an FMA, which
// the AVX-512F variant could otherwise be compiled into). The SIMD
// variants run 2, 4 or 8 such chains per register side by side, one per
// output column, so every variant is bit-identical to the scalar form.
//
// The variants are built with function target attributes and picked once
// at run time from the CPU's features (common/simd.hpp).

#include <cstdint>
#include <vector>

#include "common/simd.hpp"

namespace aift {

struct SkinnyProductArgs {
  const double* l = nullptr;  ///< rows x k, row stride ldl
  std::int64_t ldl = 0;
  const double* s = nullptr;  ///< k x cols, row stride lds
  std::int64_t lds = 0;
  double* d = nullptr;  ///< rows x cols, row stride ldd
  std::int64_t ldd = 0;
  std::int64_t rows = 0, cols = 0, k = 0;
  /// Continue every chain from the partial sum already in D (a product
  /// split over consecutive k ranges) instead of from 0.0.
  bool accumulate = false;
};

using SkinnyProductFn = void (*)(const SkinnyProductArgs&);

using SkinnyProductVariant = IsaVariant<SkinnyProductFn>;

/// Runs the fastest variant this CPU supports, over cache-sized blocks of
/// k (same chains, same order).
void skinny_product(const SkinnyProductArgs& args);

/// Every variant this CPU can run, fastest first, so tests can pin each
/// one against the others and against a scalar reference.
[[nodiscard]] std::vector<SkinnyProductVariant> skinny_product_variants();

}  // namespace aift
