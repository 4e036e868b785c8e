#include "core/skinny_product.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/simd.hpp"

namespace aift {
namespace {

// Generic vectors of doubles. Only ever locals inside always-inline
// bodies, so each variant's target attribute decides the instructions.
typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

/// Doubles of S per k block (256 KiB): a block stays in L2 while every
/// column group and row tile of the call sweeps it.
constexpr std::int64_t kBlockDoubles = std::int64_t{1} << 15;

template <typename Vec>
inline constexpr int kLanes = static_cast<int>(sizeof(Vec) / sizeof(double));

// out = {x, x, ..., x} as one broadcast: lane 0 shuffled into every lane
// (a per-lane initializer compiles to one masked insert per lane).
template <typename Vec, std::size_t... I>
[[gnu::always_inline]] inline void splat(Vec& out, double x,
                                         std::index_sequence<I...>) {
  const Vec first = {x};
  out = __builtin_shufflevector(first, first, ((void)I, 0)...);
}

// R rows x V vectors of outputs starting at (r0, j0), accumulated in
// registers over p.k, starting from 0.0 or (p.accumulate) from D.
template <typename Vec, int R, int V>
[[gnu::always_inline]] inline void tile(const SkinnyProductArgs& p,
                                        std::int64_t r0, std::int64_t j0) {
  constexpr int kW = kLanes<Vec>;
  Vec acc[R][V];
  const double* lrow[R];
  for (int r = 0; r < R; ++r) {
    lrow[r] = p.l + (r0 + r) * p.ldl;
    for (int v = 0; v < V; ++v) {
      acc[r][v] = Vec{};
      if (p.accumulate) {
        std::memcpy(&acc[r][v], p.d + (r0 + r) * p.ldd + j0 + v * kW,
                    sizeof(Vec));
      }
    }
  }
  const double* srow = p.s + j0;
  for (std::int64_t kk = 0; kk < p.k; ++kk, srow += p.lds) {
    Vec sv[V];
    for (int v = 0; v < V; ++v) std::memcpy(&sv[v], srow + v * kW, sizeof(Vec));
    for (int r = 0; r < R; ++r) {
      Vec lv;
      splat(lv, lrow[r][kk], std::make_index_sequence<kW>{});
      for (int v = 0; v < V; ++v) {
        Vec prod = lv * sv[v];
        round_alone(prod);
        acc[r][v] = acc[r][v] + prod;
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    double* drow = p.d + (r0 + r) * p.ldd + j0;
    for (int v = 0; v < V; ++v) {
      std::memcpy(drow + v * kW, &acc[r][v], sizeof(Vec));
    }
  }
}

// Columns [j, j + V*W) of every row, repeated while whole vector groups
// remain; returns the first column left over.
template <typename Vec, int R, int V>
[[gnu::always_inline]] inline std::int64_t stage(const SkinnyProductArgs& p,
                                                 std::int64_t j) {
  constexpr std::int64_t kWidth = V * kLanes<Vec>;
  for (; j + kWidth <= p.cols; j += kWidth) {
    std::int64_t r = 0;
    for (; r + R <= p.rows; r += R) tile<Vec, R, V>(p, r, j);
    for (; r < p.rows; ++r) tile<Vec, 1, V>(p, r, j);
  }
  return j;
}

[[gnu::always_inline]] inline void scalar_columns(const SkinnyProductArgs& p,
                                                  std::int64_t j0) {
  for (std::int64_t r = 0; r < p.rows; ++r) {
    const double* lrow = p.l + r * p.ldl;
    for (std::int64_t j = j0; j < p.cols; ++j) {
      double acc = p.accumulate ? p.d[r * p.ldd + j] : 0.0;
      for (std::int64_t kk = 0; kk < p.k; ++kk) {
        double prod = lrow[kk] * p.s[kk * p.lds + j];
        round_alone(prod);
        acc = acc + prod;
      }
      p.d[r * p.ldd + j] = acc;
    }
  }
}

// 8 accumulators per tile where the register file allows: enough
// independent chains to hide the add latency.
void product_generic(const SkinnyProductArgs& p) {
  std::int64_t j = stage<Vec2, 4, 2>(p, 0);
  j = stage<Vec2, 4, 1>(p, j);
  scalar_columns(p, j);
}

#ifdef AIFT_HAVE_X86_VARIANTS
__attribute__((target("avx2"))) void product_avx2(const SkinnyProductArgs& p) {
  std::int64_t j = stage<Vec4, 4, 2>(p, 0);
  j = stage<Vec4, 8, 1>(p, j);
  scalar_columns(p, j);
}

__attribute__((target("avx512f"))) void product_avx512(
    const SkinnyProductArgs& p) {
  std::int64_t j = stage<Vec8, 4, 2>(p, 0);
  j = stage<Vec8, 8, 1>(p, j);
  j = stage<Vec4, 8, 1>(p, j);
  scalar_columns(p, j);
}
#endif

}  // namespace

std::vector<SkinnyProductVariant> skinny_product_variants() {
#ifdef AIFT_HAVE_X86_VARIANTS
  return runnable_variants<SkinnyProductFn>(&product_avx512, &product_avx2,
                                            &product_generic);
#else
  return runnable_variants<SkinnyProductFn>(nullptr, nullptr,
                                            &product_generic);
#endif
}

void skinny_product(const SkinnyProductArgs& args) {
  static const SkinnyProductFn best = skinny_product_variants().front().fn;
  // k blocks small enough that a block of S stays in cache while every
  // column group and row tile sweeps it: S then comes from memory once,
  // not once per column group. Each chain carries its partial sum in D
  // from one block to the next, so its adds keep their ascending-k order.
  const std::int64_t kc = std::max<std::int64_t>(
      64, kBlockDoubles / std::max<std::int64_t>(1, args.cols));
  for (std::int64_t k0 = 0; k0 < args.k || k0 == 0; k0 += kc) {
    SkinnyProductArgs block = args;
    block.l = args.l + k0;
    block.s = args.s + k0 * args.lds;
    block.k = std::min(kc, args.k - k0);
    block.accumulate = args.accumulate || k0 > 0;
    best(block);
  }
}

}  // namespace aift
