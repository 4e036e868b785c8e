#include "common/scratch.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <new>

namespace aift {
namespace {

constexpr std::align_val_t kAlignment{64};

struct AlignedDelete {
  void operator()(void* p) const { ::operator delete(p, kAlignment); }
};

struct Buffer {
  std::unique_ptr<void, AlignedDelete> data;
  std::size_t capacity = 0;  ///< bytes
};

std::atomic<std::int64_t> g_hits{0};
std::atomic<std::int64_t> g_misses{0};

thread_local std::array<Buffer, kNumScratchSlots> t_buffers;

}  // namespace

void* scratch_bytes(ScratchSlot slot, std::size_t bytes) {
  Buffer& buf = t_buffers[static_cast<std::size_t>(slot)];
  if (buf.capacity >= bytes) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Raw aligned storage, never value-initialized: the caller overwrites
    // what it uses. Storage from operator new implicitly creates the
    // trivial arrays scratch_array hands out.
    buf.data.reset(::operator new(bytes, kAlignment));
    buf.capacity = bytes;
    g_misses.fetch_add(1, std::memory_order_relaxed);
  }
  return buf.data.get();
}

ScratchStats scratch_stats() {
  ScratchStats s;
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  return s;
}

void reset_scratch_stats() {
  g_hits.store(0, std::memory_order_relaxed);
  g_misses.store(0, std::memory_order_relaxed);
}

}  // namespace aift
