#pragma once
// Packed-operand fast path of the functional GEMM (the hot-path layer of
// the plan -> compile -> execute -> serve split).
//
// functional_gemm takes its B operand as a GemmOperand: an FP16 matrix,
// which every call converts to a padded FP32 copy before the threadblocks
// can read it, or a PackedOperand. For weights — immutable for the
// lifetime of a session, shared by every request, retry and campaign trial
// — that per-call conversion (allocate, zero-fill, convert) is pure
// redundant work. A PackedOperand performs it once, into a k-major panel
// layout: columns are grouped into MMA-width (kN = 8) panels, each panel
// storing its 8 column values contiguously per k row. The microkernel
// (gemm/gemm_kernel) then reads one contiguous 8-float row per panel per
// k — a register's worth of column chains, reused across the micro-tile's
// rows — and consecutive k steps advance linearly through memory, so a
// whole K-panel streams sequentially instead of striding by the padded
// row width.
//
// Packing changes the *layout* of the operand reads, never the K
// decomposition: each product still enters its accumulator at exactly the
// same point of the kb-slab / k8-step order, so the packed path is
// bit-identical to the unpacked path by construction (CTest-pinned, incl.
// MMA counters and fault-injection traces). The pack is keyed by the tile
// geometry it was padded for (kb, nb) and fingerprinted like ProfileCache
// entries so cached packs can be validated against the plan they serve.

#include <cstdint>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

/// The padded FP32 conversion of one immutable B operand (K x N) in panel
/// layout, built once and reused across every GEMM that multiplies by it.
struct PackedOperand {
  std::int64_t rows = 0;  ///< logical K of the source matrix
  std::int64_t cols = 0;  ///< logical N of the source matrix
  int kb = 0;             ///< tile K-slab the panels are padded to
  int nb = 0;             ///< tile N width the panel count is padded to
  std::int64_t kpad = 0;  ///< rows padded to whole kb slabs
  std::int64_t npad = 0;  ///< cols padded to whole nb tiles
  /// npad/8 k-major panels of kpad*8 floats each, zero in the padding:
  /// panels[(c / 8) * kpad * 8 + k * 8 + c % 8] == B(k, c), so the eight
  /// columns of an MMA group are contiguous per k row and a panel streams
  /// sequentially over k.
  std::vector<float> panels;
  /// FNV-1a over the source bits and the pack geometry — the identity
  /// under which a plan/session layer caches this pack.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] bool empty() const { return panels.empty(); }
  /// The pack serves a GEMM against a `b_rows` x `b_cols` B under `tile`:
  /// same logical operand, padded to the same executed grid.
  [[nodiscard]] bool compatible(std::int64_t b_rows, std::int64_t b_cols,
                                const TileConfig& tile) const;
};

/// Packs `b` for execution under `tile`. Two tiles sharing (kb, nb)
/// produce interchangeable packs.
[[nodiscard]] PackedOperand pack_operand(const Matrix<half_t>& b,
                                         const TileConfig& tile);

/// The fingerprint pack_operand(b, tile) would produce, without packing.
[[nodiscard]] std::uint64_t packed_fingerprint(const Matrix<half_t>& b,
                                               const TileConfig& tile);

}  // namespace aift
