#pragma once
// Thread-reusable scratch buffers for the functional-GEMM hot path.
//
// Every functional_gemm call used to heap-allocate its padded FP32 operand
// copies and every threadblock its accumulator — once per layer per
// request per retry, pure allocator traffic on the serving path. The
// arena replaces those with per-thread buffers that grow to the high-water
// mark of the shapes a thread executes and are then reused: the worker
// pool's threads are long-lived (common/parallel.cpp), so in steady state
// a serving round performs zero scratch allocations.
//
// Buffers are thread-local, so the arena is race-free by construction at
// any AIFT_NUM_THREADS; only the hit/miss counters are shared (atomic).
// Slots partition a thread's buffers by use so two live buffers on one
// thread (e.g. the staged A operand read by the whole parallel region and
// the accumulator of a block the calling thread itself executes) can
// never alias. Contents are unspecified on return — callers initialize
// what they use.
//
// The counters mirror ProfileCache::stats(): a hit is a request served by
// an already-large-enough buffer, a miss had to (re)allocate. Tests pin
// "zero new allocations per steady-state serving round" on the miss
// counter so the optimization cannot silently rot.
//
// Thread-safety annotations (common/annotations.hpp): this file has
// nothing to annotate BY DESIGN — the buffers are thread_local (no
// capability can be shared) and the two counters are std::atomic, which
// the Clang analysis treats as safe unguarded. If a future change ever
// replaces an atomic here with a plain counter, it must come back under
// an aift::Mutex + AIFT_GUARDED_BY or the Clang CI leg will flag every
// cross-thread access.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace aift {

/// Per-thread buffer slots. A thread holds at most one live buffer per
/// slot; distinct concurrent uses must use distinct slots.
enum class ScratchSlot : int {
  gemm_accumulator = 0,  ///< per-block FP32 accumulator (any pool worker)
  gemm_staged_a = 1,     ///< per-call padded FP32 staging of operand A
  check_sums = 2,     ///< per-check lane-column sums S of an unprepared b
  check_verdicts = 3,  ///< per-check residual/threshold/flag per lane row
  check_lhs = 4,      ///< per-panel decoded A rows (any pool worker)
  check_product = 5,  ///< per-panel A·S product (any pool worker)
};

inline constexpr std::size_t kNumScratchSlots = 6;

/// Process-wide scratch counters, aggregated across every thread.
struct ScratchStats {
  std::int64_t hits = 0;    ///< requests served without allocating
  std::int64_t misses = 0;  ///< requests that had to (re)allocate

  [[nodiscard]] std::int64_t requests() const { return hits + misses; }
};

/// Returns the calling thread's buffer for `slot`, grown (never shrunk)
/// to hold at least `bytes` bytes, 64-byte aligned. Contents are
/// unspecified. The pointer stays valid until the same thread requests
/// the same slot again.
[[nodiscard]] void* scratch_bytes(ScratchSlot slot, std::size_t bytes);

/// scratch_bytes typed as an array of `count` trivial T.
template <typename T>
[[nodiscard]] T* scratch_array(ScratchSlot slot, std::size_t count) {
  static_assert(std::is_trivial_v<T>);
  return static_cast<T*>(scratch_bytes(slot, count * sizeof(T)));
}

[[nodiscard]] inline float* scratch_floats(ScratchSlot slot,
                                           std::size_t count) {
  return scratch_array<float>(slot, count);
}

[[nodiscard]] ScratchStats scratch_stats();
void reset_scratch_stats();

}  // namespace aift
