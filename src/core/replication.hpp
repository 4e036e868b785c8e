#pragma once
// Functional thread-level replication (paper §4) — the strawman the paper
// evaluates before settling on thread-level ABFT.
//
//   traditional: every MMA is executed twice, the duplicate accumulating
//     into a second full set of output registers; the two register sets
//     are compared element-wise. (2x accumulator registers -> occupancy
//     collapse; the cost model charges this via extra_regs_per_thread.)
//   single-accumulation: the duplicated MMAs all accumulate into one set
//     of four registers; in the absence of a fault the sum of those four
//     equals the sum of the thread's Mt x Nt outputs.
//
// check() verifies a possibly-faulty C against the corresponding invariant
// per thread, with the same localization granularity as thread-level ABFT.

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "core/error_bound.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

enum class ReplicationKind { traditional, single_accumulation };

class ThreadReplication {
 public:
  ThreadReplication(TileConfig tile, ReplicationKind kind,
                    ErrorBoundParams bound = {});

  [[nodiscard]] ThreadLevelResult check(const Matrix<half_t>& a,
                                        const Matrix<half_t>& b,
                                        const Matrix<half_t>& c) const;

  [[nodiscard]] ReplicationKind kind() const { return kind_; }
  [[nodiscard]] const TileConfig& tile() const { return tile_; }

 private:
  TileConfig tile_;
  ReplicationKind kind_;
  ErrorBoundParams bound_;
  LaneMap lanes_;
};

}  // namespace aift
