#include "gemm/gemm_kernel.hpp"

#include <cstring>
#include <utility>

namespace aift {
namespace {

// Generic vectors of floats. Only ever locals inside always-inline
// bodies, so each variant's target attribute decides the instructions.
typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));
typedef float Vec16 __attribute__((vector_size(64)));

constexpr int kPanel = 8;  // columns per B panel (the MMA kN)

template <typename Vec>
inline constexpr int kLanes = static_cast<int>(sizeof(Vec) / sizeof(float));

// out = {x, x, ..., x} as one broadcast.
template <typename Vec, std::size_t... I>
[[gnu::always_inline]] inline void splat(Vec& out, float x,
                                         std::index_sequence<I...>) {
  const Vec first = {x};
  out = __builtin_shufflevector(first, first, ((void)I, 0)...);
}

// Columns [j, j + W) of the micro-tile from one B row: a vector of up to 8
// lies inside one panel; a 16-wide one joins two adjacent panels' rows.
template <typename Vec>
[[gnu::always_inline]] inline void load_b(Vec& out, const float* bk,
                                          std::int64_t panel_stride, int j) {
  if constexpr (kLanes<Vec> == 2 * kPanel) {
    Vec8 lo;
    Vec8 hi;
    std::memcpy(&lo, bk + (j / kPanel) * panel_stride, sizeof(Vec8));
    std::memcpy(&hi, bk + (j / kPanel + 1) * panel_stride, sizeof(Vec8));
    out = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                  11, 12, 13, 14, 15);
  } else {
    std::memcpy(&out, bk + (j / kPanel) * panel_stride + j % kPanel,
                sizeof(Vec));
  }
}

// MR rows x NR panels of outputs at (row r0, panel q0), accumulated in
// registers over p.k and stored once. The unroll pragmas keep the
// accumulator array in registers: without them GCC -O2 leaves it in
// memory and the kernel runs at half speed.
template <typename Vec, int MR, int NR>
[[gnu::always_inline]] inline void micro_tile(const GemmBlockArgs& p,
                                              std::int64_t r0,
                                              std::int64_t q0) {
  constexpr int kW = kLanes<Vec>;
  constexpr int kV = NR * kPanel / kW;  // vectors per row
  static_assert(kV * kW == NR * kPanel);
  Vec acc[MR][kV];
  const float* arow[MR];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
    arow[r] = p.a + (r0 + r) * p.lda;
#pragma GCC unroll 16
    for (int v = 0; v < kV; ++v) acc[r][v] = Vec{};
  }
  const float* bk = p.b + q0 * p.panel_stride;
  for (std::int64_t kx = 0; kx < p.k; ++kx, bk += p.k_stride) {
    Vec bv[kV];
#pragma GCC unroll 16
    for (int v = 0; v < kV; ++v) load_b(bv[v], bk, p.panel_stride, v * kW);
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      Vec av;
      splat(av, arow[r][kx], std::make_index_sequence<kW>{});
#pragma GCC unroll 16
      for (int v = 0; v < kV; ++v) {
        Vec prod = av * bv[v];
        round_alone(prod);
        acc[r][v] = acc[r][v] + prod;
      }
    }
  }
  float* ctile = p.c + r0 * p.ldc + q0 * kPanel;
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < kV; ++v) {
      std::memcpy(ctile + r * p.ldc + v * kW, &acc[r][v], sizeof(Vec));
    }
  }
}

// Every micro-tile of the requested extent, row groups outermost so an
// MR-row strip of A stays in L1 while the block's B panels stream past.
template <typename Vec, int MR, int NR>
[[gnu::always_inline]] inline void micro_tiles(const GemmBlockArgs& p) {
  for (std::int64_t r = 0; r < p.rows; r += MR) {
    for (std::int64_t q = 0; q < p.panels; q += NR) {
      micro_tile<Vec, MR, NR>(p, r, q);
    }
  }
}

// 8 accumulator registers of 4 lanes: 4 rows x one panel.
void gemm_block_generic(const GemmBlockArgs& p) {
  micro_tiles<Vec4, 4, 1>(p);
}

#ifdef AIFT_HAVE_X86_VARIANTS
// 16 ymm registers: 4 rows x 2 panels is 8 accumulators, which leaves
// room for the two B vectors and the broadcast.
__attribute__((target("avx2"))) void gemm_block_avx2(const GemmBlockArgs& p) {
  if (p.block_panels % 2 == 0) {
    micro_tiles<Vec8, 4, 2>(p);
  } else {
    micro_tiles<Vec8, 4, 1>(p);
  }
}

// 32 zmm registers: 8 rows x 4 panels (two 16-lane vectors per row) is
// 16 accumulators, enough independent chains to hide the add latency.
__attribute__((target("avx512f"))) void gemm_block_avx512(
    const GemmBlockArgs& p) {
  if (p.block_panels % 4 == 0) {
    micro_tiles<Vec16, 8, 4>(p);
  } else {
    micro_tiles<Vec8, 8, 1>(p);
  }
}
#endif

}  // namespace

std::vector<GemmKernelVariant> gemm_kernel_variants() {
#ifdef AIFT_HAVE_X86_VARIANTS
  return runnable_variants<GemmBlockFn>(&gemm_block_avx512, &gemm_block_avx2,
                                        &gemm_block_generic);
#else
  return runnable_variants<GemmBlockFn>(nullptr, nullptr,
                                        &gemm_block_generic);
#endif
}

GemmBlockFn best_gemm_kernel() {
  static const GemmBlockFn best = gemm_kernel_variants().front().fn;
  return best;
}

}  // namespace aift
