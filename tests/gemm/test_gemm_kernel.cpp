// Independent oracle for the GEMM microkernel variants. The reference
// below walks every output's chain exactly as the functional GEMM's
// contract describes it — FP32, k ascending over K padded to whole kb
// slabs with zeros, one rounded multiply then one rounded add per
// product, each fault's XOR applied after its k8 step (or after the last
// one) — with plain scalar loops over the unpadded operands. It shares no
// code with gemm/functional.cpp or gemm/gemm_kernel.cpp, so agreement on
// every output bit (of every variant's block kernel, and of the functional
// GEMM over every tile, shape and B layout) pins the kernels rather than
// comparing them with themselves.
//
// Registered whole-binary under AIFT_NUM_THREADS 1/2/8: blocks run on
// the worker pool, and no result may depend on which worker ran one.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gemm/functional.hpp"
#include "gemm/gemm_kernel.hpp"

namespace aift {
namespace {

struct Fault {
  std::int64_t row, col, step;
  std::uint32_t xor_bits;
};

Matrix<float> scalar_chains(const Matrix<half_t>& a, const Matrix<half_t>& b,
                            int kb, const std::vector<Fault>& faults) {
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  const std::int64_t steps = (k + kb - 1) / kb * (kb / 8);
  Matrix<float> out(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t step = 0; step < steps; ++step) {
        for (std::int64_t kk = step * 8; kk < step * 8 + 8; ++kk) {
          const float x = kk < k ? a(i, kk).to_float() : 0.0f;
          const float y = kk < k ? b(kk, j).to_float() : 0.0f;
          const float prod = x * y;
          acc = acc + prod;
        }
        for (const Fault& f : faults) {
          if (f.row == i && f.col == j && f.step == step) {
            acc = std::bit_cast<float>(std::bit_cast<std::uint32_t>(acc) ^
                                       f.xor_bits);
          }
        }
      }
      for (const Fault& f : faults) {
        if (f.row == i && f.col == j && (f.step < 0 || f.step >= steps)) {
          acc = std::bit_cast<float>(std::bit_cast<std::uint32_t>(acc) ^
                                     f.xor_bits);
        }
      }
      out(i, j) = acc;
    }
  }
  return out;
}

// Every tile the profiler sweeps, plus valid custom tiles one, two and
// three 8-column panels wide, which take the narrower micro-tiles.
std::vector<TileConfig> tiles_under_test() {
  std::vector<TileConfig> tiles = candidate_tiles();
  tiles.push_back({16, 8, 8, 16, 8, 2});
  tiles.push_back({16, 16, 8, 16, 16, 2});
  tiles.push_back({32, 24, 16, 16, 8, 2});
  for (const auto& t : tiles) EXPECT_TRUE(t.valid()) << t.name();
  return tiles;
}

std::string bits_mismatch(const Matrix<float>& want, const Matrix<float>& got) {
  for (std::int64_t i = 0; i < want.rows(); ++i) {
    for (std::int64_t j = 0; j < want.cols(); ++j) {
      if (std::bit_cast<std::uint32_t>(want(i, j)) !=
          std::bit_cast<std::uint32_t>(got(i, j))) {
        return "first mismatch at (" + std::to_string(i) + "," +
               std::to_string(j) + ")";
      }
    }
  }
  return {};
}

// Runs the functional GEMM's own kernel (the fastest variant this CPU
// supports) over both B layouts and checks each result, bit for bit,
// against `want`, and the counters against the padded grid. The variants
// themselves are pinned block by block in expect_block_chains.
void expect_functional_chains(const Matrix<half_t>& a, const Matrix<half_t>& b,
                              const TileConfig& tile,
                              const std::vector<FaultSpec>& faults,
                              const Matrix<float>& want) {
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  const PackedOperand packed = pack_operand(b, tile);
  for (const bool use_pack : {false, true}) {
    SCOPED_TRACE(use_pack ? "packed" : "raw");
    GemmCounters counters;
    FunctionalOptions opts;
    opts.faults = faults;
    opts.counters = &counters;
    Matrix<float> got(m, n);
    if (use_pack) {
      functional_gemm(a, packed, got, tile, opts);
    } else {
      functional_gemm(a, b, got, tile, opts);
    }
    ASSERT_EQ(bits_mismatch(want, got), "");

    // The counters model the predicated GPU grid: whole padded tiles,
    // even where the host kernel skips the padding.
    const std::int64_t bm = (m + tile.mb - 1) / tile.mb;
    const std::int64_t bn = (n + tile.nb - 1) / tile.nb;
    const std::int64_t steps = (k + tile.kb - 1) / tile.kb * (tile.kb / 8);
    EXPECT_EQ(counters.blocks, bm * bn);
    EXPECT_EQ(counters.k8_steps, steps);
    EXPECT_EQ(counters.mmas, bm * bn * steps * (tile.mb / 16) * (tile.nb / 8));
    EXPECT_EQ(counters.fp16_stores, m * n);
  }
}

// One block straight through a variant's kernel and through the baseline
// (last) variant's, on full-precision FP32 operands: products of FP16
// values are exact in FP32, so only operands like these tell a fused
// multiply-add from a rounded multiply and add. B is laid out raw (panels
// 8 floats apart, rows `ldb` apart) or packed (rows 8 floats apart, panels
// `k * 8` apart); guard words around the block must survive untouched.
void expect_block_chains(GemmBlockFn fn, GemmBlockFn baseline, bool packed,
                         std::int64_t rows, std::int64_t panels,
                         std::int64_t block_panels, std::int64_t k, Rng& rng) {
  constexpr std::int64_t kBlockRows = 16, kGuard = 64;
  const std::int64_t cols = block_panels * 8, lda = k + 3, ldb = cols + 8;
  std::vector<float> a(static_cast<std::size_t>(kBlockRows * lda));
  std::vector<float> b(static_cast<std::size_t>(k * ldb));
  for (auto& x : a) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  auto b_at = [&](std::int64_t kk, std::int64_t c) -> float& {
    return b[static_cast<std::size_t>(packed ? (c / 8) * k * 8 + kk * 8 + c % 8
                                             : kk * ldb + c)];
  };
  const float sentinel = std::bit_cast<float>(0x7fc0beefu);
  std::vector<float> c(static_cast<std::size_t>(kBlockRows * cols + 2 * kGuard),
                       sentinel);
  GemmBlockArgs args;
  args.a = a.data();
  args.lda = lda;
  args.b = b.data();
  args.panel_stride = packed ? k * 8 : 8;
  args.k_stride = packed ? 8 : ldb;
  args.c = c.data() + kGuard;
  args.ldc = cols;
  args.rows = rows;
  args.panels = panels;
  args.block_panels = block_panels;
  args.k = k;
  fn(args);
  std::vector<float> base(c.size(), sentinel);
  GemmBlockArgs base_args = args;
  base_args.c = base.data() + kGuard;
  baseline(base_args);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < panels * 8; ++j) {
      float want = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float prod = a[static_cast<std::size_t>(r * lda + kk)] *
                           b_at(kk, j);
        want = want + prod;
      }
      const float got = args.c[r * cols + j];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want),
                std::bit_cast<std::uint32_t>(got))
          << "at (" << r << "," << j << ")";
      ASSERT_EQ(std::bit_cast<std::uint32_t>(base_args.c[r * cols + j]),
                std::bit_cast<std::uint32_t>(got))
          << "baseline differs at (" << r << "," << j << ")";
    }
  }
  for (std::int64_t g = 0; g < kGuard; ++g) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(c[static_cast<std::size_t>(g)]),
              0x7fc0beefu);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(
                  c[c.size() - 1 - static_cast<std::size_t>(g)]),
              0x7fc0beefu);
  }
}

TEST(GemmKernel, EveryVariantMatchesScalarChains) {
  Rng rng(17);
  const auto variants = gemm_kernel_variants();
  ASSERT_FALSE(variants.empty());
  for (const auto& variant : variants) {
    for (const bool packed : {false, true}) {
      for (const std::int64_t block_panels : {1, 2, 3, 4, 16}) {
        for (const std::int64_t rows : {1, 5, 16}) {
          for (const std::int64_t panels : {std::int64_t{1}, block_panels}) {
            for (const std::int64_t k : {1, 13, 1024}) {
              SCOPED_TRACE(std::string(variant.isa) +
                           (packed ? " packed" : " raw") + " block_panels " +
                           std::to_string(block_panels) + " rows " +
                           std::to_string(rows) + " panels " +
                           std::to_string(panels) + " k " +
                           std::to_string(k));
              expect_block_chains(variant.fn, variants.back().fn, packed,
                                  rows, panels, block_panels, k, rng);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }

  // The same chains through functional_gemm on its own kernel: every
  // tile, edge shapes, both B layouts.
  for (const TileConfig& tile : tiles_under_test()) {
    for (const std::int64_t m : {1, 13, tile.mb, tile.mb + 1}) {
      for (const std::int64_t n : {1, 8, 17, tile.nb + 8}) {
        for (const std::int64_t k : {1, 13, tile.kb + 1, 1024}) {
          // The long chains on the corner shapes only: the reference is
          // scalar and the sweep runs in Debug and sanitizer builds too.
          const bool corner = (m == 1 || m == tile.mb + 1) &&
                              (n == 1 || n == tile.nb + 8);
          if (k == 1024 && !corner) continue;
          SCOPED_TRACE(tile.name() + " m" + std::to_string(m) + " n" +
                       std::to_string(n) + " k" + std::to_string(k));
          Matrix<half_t> a(m, k), b(k, n);
          rng.fill_uniform(a, -2.0, 2.0);
          rng.fill_uniform(b, -2.0, 2.0);
          expect_functional_chains(a, b, tile, {},
                               scalar_chains(a, b, tile.kb, {}));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(GemmKernel, FaultedMicroTilesMatchScalarChains) {
  Rng rng(23);
  for (const TileConfig& tile : tiles_under_test()) {
    SCOPED_TRACE(tile.name());
    // Two blocks each way; the second holds one real row and 8 real
    // columns, so its first micro-tile straddles the real edge.
    const std::int64_t m = tile.mb + 1, n = tile.nb + 8, k = tile.kb + 13;
    const std::int64_t steps = (k + tile.kb - 1) / tile.kb * (tile.kb / 8);
    Matrix<half_t> a(m, k), b(k, n);
    rng.fill_uniform(a, -2.0, 2.0);
    rng.fill_uniform(b, -2.0, 2.0);
    const std::vector<Fault> faults = {
        {0, 0, 0, 0x00400000u},           // first micro-tile of a block
        {0, 0, steps - 1, 0x00000001u},   // a second fault, same element
        {0, 1, -1, 0x80000000u},          // same micro-tile, next column
        {tile.mb - 1, tile.nb - 1, 1, 0x00200000u},  // last micro-tile
        {m - 1, n - 1, 0, 0x00400000u},   // straddles the real edge
        {m - 1, 0, steps + 4, 0x00100000u},  // past the last step
        {m, n, 0, 0x7f800000u},           // padding rows and columns
        {m - 1, n + 3, -1, 0x7f800000u},  // padding columns of a real row
    };
    std::vector<FaultSpec> specs;
    std::vector<Fault> real;
    for (const Fault& f : faults) {
      specs.push_back({f.row, f.col, f.step, f.xor_bits});
      if (f.row < m && f.col < n) real.push_back(f);
    }
    expect_functional_chains(a, b, tile, specs,
                         scalar_chains(a, b, tile.kb, real));
    if (HasFatalFailure()) return;
  }
}

TEST(GemmKernel, BaselineVariantIsLast) {
  const auto variants = gemm_kernel_variants();
  ASSERT_FALSE(variants.empty());
  const std::string last = variants.back().isa;
  EXPECT_TRUE(last == "sse2" || last == "generic") << last;
  EXPECT_EQ(best_gemm_kernel(), variants.front().fn);
}

}  // namespace
}  // namespace aift
