#include "gemm/functional.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "gemm/gemm_kernel.hpp"
#include "gemm/mma.hpp"

namespace aift {
namespace {

// Stages the padded FP32 conversion of `m` into the calling thread's
// scratch slot (rows x cols, row-major, zero padding materialized to the
// tile grid). Each element is written once: real elements decode through
// the exact table, only the padding is zeroed. The buffer is read by the
// whole parallel region; only the calling thread writes it, and only
// before the region starts.
float* stage_f32_padded(ScratchSlot slot, const Matrix<half_t>& m,
                        std::int64_t rows, std::int64_t cols) {
  float* out = scratch_floats(slot, static_cast<std::size_t>(rows * cols));
  const float* f16 = f16_to_f32_table();
  const half_t* in = m.data();
  for (std::int64_t r = 0; r < m.rows(); ++r, in += m.cols()) {
    float* row = out + r * cols;
    for (std::int64_t c = 0; c < m.cols(); ++c) row[c] = f16[in[c].bits()];
    std::fill(row + m.cols(), row + cols, 0.0f);
  }
  std::fill(out + m.rows() * cols, out + rows * cols, 0.0f);
  return out;
}

struct BlockFault {
  std::int64_t local_row, local_col, k8_step;
  std::uint32_t xor_bits;
};

void apply_fault(float& acc, std::uint32_t xor_bits) {
  acc = std::bit_cast<float>(std::bit_cast<std::uint32_t>(acc) ^ xor_bits);
}

// The B operand as the executor reads it: column c's K values start at
// column(c), consecutive k rows k_stride floats apart, and the eight
// columns of an 8-column panel sit side by side per k row, panels
// panel_stride floats apart. The two layouts differ only in where those
// values live, never in their numeric content, so the core below is
// bit-identical across them by construction.
//
// Raw, the per-call padded FP32 copy (row-major kpad x npad): panel
// stride 8, k stride npad — consecutive k reads stride by the padded row
// width (the pre-pack access pattern).
// Packed, a PackedOperand (k-major 8-column panels): panel stride kpad·8,
// k stride 8 — each k consumes one contiguous 8-float row per panel, 32
// bytes from its k-1 neighbour, so every panel's K extent streams
// sequentially.
struct BView {
  const float* data;
  std::int64_t panel_stride;
  std::int64_t k_stride;

  [[nodiscard]] const float* column(std::int64_t col) const {
    return data + (col / MmaShape::kN) * panel_stride + col % MmaShape::kN;
  }
};

// Per-element K chain with injected faults: identical add order to the
// fault-free microkernel (k ascending, i.e. the k8 steps of the blocked
// schedule in order), with each fault's XOR applied at its step boundary —
// exactly where the step-blocked schedule applied it to the accumulator.
float faulty_dot(const float* arow, const float* bcol, std::int64_t k_stride,
                 std::int64_t k8_per_block,
                 const std::vector<BlockFault>& faults, std::int64_t row,
                 std::int64_t col) {
  float sum = 0.0f;
  for (std::int64_t step = 0; step < k8_per_block; ++step) {
    const std::int64_t kk = step * MmaShape::kK;
    for (int kx = 0; kx < MmaShape::kK; ++kx) {
      sum += arow[kk + kx] * bcol[(kk + kx) * k_stride];
    }
    for (const auto& f : faults) {
      if (f.local_row == row && f.local_col == col && f.k8_step == step) {
        apply_fault(sum, f.xor_bits);
      }
    }
  }
  for (const auto& f : faults) {
    if (f.local_row == row && f.local_col == col &&
        (f.k8_step < 0 || f.k8_step >= k8_per_block)) {
      apply_fault(sum, f.xor_bits);
    }
  }
  return sum;
}

// The store epilogue (FP16 round-to-nearest-even, or the raw FP32
// accumulators), clamped to the real unpadded output. Every path stores
// through this one definition, as the stacking and packing bit-identity
// invariants require. Full interior blocks take the unguarded loops — the
// bounds can only clip on the grid's edge row/column, so re-checking them
// per element there is pure overhead.
template <typename Out>
void store_block(Matrix<Out>& c, const TileConfig& tile, std::int64_t r0,
                 std::int64_t c0, const float* acc) {
  const std::int64_t m = c.rows(), n = c.cols();
  if (r0 + tile.mb <= m && c0 + tile.nb <= n) {
    for (int r = 0; r < tile.mb; ++r) {
      for (int cc = 0; cc < tile.nb; ++cc) {
        c(r0 + r, c0 + cc) =
            static_cast<Out>(acc[static_cast<std::size_t>(r) * tile.nb + cc]);
      }
    }
    return;
  }
  for (int r = 0; r < tile.mb; ++r) {
    if (r0 + r >= m) break;
    for (int cc = 0; cc < tile.nb; ++cc) {
      if (c0 + cc >= n) break;
      c(r0 + r, c0 + cc) =
          static_cast<Out>(acc[static_cast<std::size_t>(r) * tile.nb + cc]);
    }
  }
}

// The single definition of the threadblock execution: each output element
// accumulates its K products in ascending k — byte-identical to kb slabs
// of k8-step MMAs walked in order, because both visit an element's
// products in the same sequence. The fault-free microkernel
// (gemm/gemm_kernel) keeps one FP32 chain per element in registers, its
// micro-tiles reuse every B load across several rows, and B is read
// through `b` (contiguous panels when packed, the strided padded copy
// otherwise).
// Any change here must keep an element's accumulation order a function of
// the K decomposition only — the stacking and packing invariants both
// rest on that property.
template <typename Out>
void run_blocks_on(const float* af, std::int64_t kpad, const BView& b,
                   Matrix<Out>& c, const TileConfig& tile,
                   std::int64_t k8_per_block, const FunctionalOptions& opts) {
  const std::int64_t m = c.rows(), n = c.cols();
  const std::int64_t bm = (m + tile.mb - 1) / tile.mb;
  const std::int64_t bn = (n + tile.nb - 1) / tile.nb;

  const GemmBlockFn kernel = best_gemm_kernel();
  std::atomic<std::int64_t> mma_count{0};
  // Fault fast path: the entire serving path injects nothing, so blocks
  // skip fault bookkeeping wholesale when the global list is empty — and
  // once every listed fault has been claimed by its (unique) home block,
  // remaining blocks stop rescanning the list. Claiming is monotone
  // bookkeeping only: a stale read merely causes one redundant scan of a
  // list that cannot match, never a missed or double-applied fault.
  std::atomic<std::int64_t> unclaimed{
      static_cast<std::int64_t>(opts.faults.size())};

  auto body = [&](std::int64_t block) {
    if (block >= bm * bn) {
      // Co-scheduled non-GEMM work (deferred verification drains) rides the
      // same parallel region as the threadblocks.
      opts.extra_task(block - bm * bn);
      return;
    }
    const std::int64_t bi = block / bn;
    const std::int64_t bj = block % bn;
    const std::int64_t r0 = bi * tile.mb;
    const std::int64_t c0 = bj * tile.nb;

    // Faults landing in this block, in local accumulator coordinates.
    std::vector<BlockFault> faults;
    if (unclaimed.load(std::memory_order_relaxed) > 0) {
      for (const auto& f : opts.faults) {
        if (f.row >= r0 && f.row < r0 + tile.mb && f.col >= c0 &&
            f.col < c0 + tile.nb) {
          faults.push_back(
              BlockFault{f.row - r0, f.col - c0, f.k8_step, f.xor_bits});
        }
      }
      if (!faults.empty()) {
        unclaimed.fetch_sub(static_cast<std::int64_t>(faults.size()),
                            std::memory_order_relaxed);
      }
    }

    // No zero-fill: the store reads only elements below (m, n), and the
    // kernel writes every one of them. It skips micro-tiles wholly in the
    // padding past m or n; the MMA counters still account the full
    // predicated tile, which is what the modeled GPU kernel executes.
    float* acc = scratch_floats(
        ScratchSlot::gemm_accumulator,
        static_cast<std::size_t>(tile.mb) * static_cast<std::size_t>(tile.nb));
    GemmBlockArgs args;
    args.a = af + r0 * kpad;
    args.lda = kpad;
    args.b = b.column(c0);
    args.panel_stride = b.panel_stride;
    args.k_stride = b.k_stride;
    args.c = acc;
    args.ldc = tile.nb;
    args.rows = std::min<std::int64_t>(tile.mb, m - r0);
    args.panels =
        (std::min<std::int64_t>(tile.nb, n - c0) + MmaShape::kN - 1) /
        MmaShape::kN;
    args.block_panels = tile.nb / MmaShape::kN;
    args.k = kpad;
    kernel(args);

    // A faulted element's chain is walked again, once, with all its XORs
    // applied at their step boundaries; the rest of its micro-tile keeps
    // the kernel's bits, which are the same chains. Faults in skipped
    // padding rewrite elements the store never reads.
    for (auto f = faults.begin(); f != faults.end(); ++f) {
      const bool rewritten = std::any_of(faults.begin(), f, [&](const auto& g) {
        return g.local_row == f->local_row && g.local_col == f->local_col;
      });
      if (rewritten) continue;
      acc[f->local_row * tile.nb + f->local_col] =
          faulty_dot(af + (r0 + f->local_row) * kpad,
                     b.column(c0 + f->local_col), b.k_stride, k8_per_block,
                     faults, f->local_row, f->local_col);
    }

    store_block(c, tile, r0, c0, acc);
    mma_count.fetch_add(
        k8_per_block * (tile.mb / MmaShape::kM) * (tile.nb / MmaShape::kN),
        std::memory_order_relaxed);
  };

  if (opts.parallel) {
    parallel_for(0, bm * bn + opts.extra_tasks, body);
  } else {
    serial_for(0, bm * bn + opts.extra_tasks, body);
  }

  if (opts.counters != nullptr) {
    opts.counters->mmas = mma_count.load();
    opts.counters->k8_steps = k8_per_block;
    opts.counters->blocks = bm * bn;
    opts.counters->fp16_stores = m * n;
  }
}

// Stages A — activations change every layer — and reads B from the
// caller's pack, or else materializes B afresh: allocation, zero fill,
// conversion, exactly what every GEMM paid before operand packing
// existed. The unpacked form serves identity tests and
// pack_weights=false sessions only (sessions, campaigns and the
// microbench all pre-pack), and deliberately stays the pre-packing
// execution so benches measuring packed-vs-unpacked compare the fast path
// against the honest historical baseline.
template <typename Out>
void run_blocks(const Matrix<half_t>& a, GemmOperand b, Matrix<Out>& c,
                const TileConfig& tile, const FunctionalOptions& opts) {
  AIFT_CHECK_MSG(tile.valid(), "invalid tile config " << tile.name());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  const std::int64_t bm = (m + tile.mb - 1) / tile.mb;
  const std::int64_t bn = (n + tile.nb - 1) / tile.nb;
  const std::int64_t k_slabs = (k + tile.kb - 1) / tile.kb;
  const std::int64_t k8_per_block = k_slabs * (tile.kb / MmaShape::kK);
  const std::int64_t kpad = k_slabs * tile.kb;

  const float* af =
      stage_f32_padded(ScratchSlot::gemm_staged_a, a, bm * tile.mb, kpad);
  if (b.packed != nullptr) {
    const PackedOperand& pack = *b.packed;
    AIFT_CHECK_MSG(pack.compatible(k, n, tile),
                   "PackedOperand (" << pack.rows << "x" << pack.cols
                                     << ", kb=" << pack.kb << ", nb="
                                     << pack.nb << ") does not serve a " << k
                                     << "x" << n << " B under tile "
                                     << tile.name());
    run_blocks_on(af, kpad,
                  BView{pack.panels.data(), pack.kpad * MmaShape::kN,
                        MmaShape::kN},
                  c, tile, k8_per_block, opts);
    return;
  }
  const Matrix<half_t>& raw = *b.matrix;
  const std::int64_t npad = bn * tile.nb;
  // The per-call conversion of B is this path's purpose: it is the
  // unpacked baseline packed_speedup_b16 measures against.
  // aift-lint: allow(hot-path-alloc)
  std::vector<float> bf(static_cast<std::size_t>(kpad * npad), 0.0f);
  for (std::int64_t r = 0; r < raw.rows(); ++r) {
    float* row = bf.data() + r * npad;
    for (std::int64_t j = 0; j < raw.cols(); ++j) row[j] = raw(r, j).to_float();
  }
  run_blocks_on(af, kpad, BView{bf.data(), MmaShape::kN, npad}, c, tile,
                k8_per_block, opts);
}

}  // namespace

template <typename Out>
void functional_gemm(const Matrix<half_t>& a, GemmOperand b, Matrix<Out>& c,
                     const TileConfig& tile, const FunctionalOptions& opts) {
  AIFT_CHECK(a.cols() == b.rows());
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  AIFT_CHECK(opts.extra_tasks == 0 || opts.extra_task != nullptr);
  run_blocks(a, b, c, tile, opts);
}

template void functional_gemm<half_t>(const Matrix<half_t>&, GemmOperand,
                                      Matrix<half_t>&, const TileConfig&,
                                      const FunctionalOptions&);
template void functional_gemm<float>(const Matrix<half_t>&, GemmOperand,
                                     Matrix<float>&, const TileConfig&,
                                     const FunctionalOptions&);

Matrix<float> reference_gemm(const Matrix<half_t>& a, const Matrix<half_t>& b) {
  AIFT_CHECK(a.cols() == b.rows());
  Matrix<float> c(a.rows(), b.cols(), 0.0f);
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        sum += static_cast<double>(a(i, k).to_float()) *
               static_cast<double>(b(k, j).to_float());
      }
      c(i, j) = static_cast<float>(sum);
    }
  }
  return c;
}

}  // namespace aift
