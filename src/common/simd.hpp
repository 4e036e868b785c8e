#pragma once
// The two pieces every SIMD kernel of the library shares: the fence that
// keeps a product rounded on its own (no FMA), and the run-time choice
// among a kernel's target-attribute variants.
//
// Kernels are built with function target attributes — never with -march
// or per-file flags — so any build of src/*.cpp carries every variant,
// and the fastest one this CPU runs is picked once at run time.

#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define AIFT_HAVE_X86_VARIANTS 1
#endif

namespace aift {

/// Leaves x unchanged but opaque to the optimizer, so a product passed
/// through it stays rounded on its own. GCC contracts a multiply and a
/// later add into an FMA whenever the target has one — AVX2 and AVX-512F
/// targets do — even in C++ under -std=c++20 and even across statements;
/// an empty asm that claims to rewrite the register is a fence it cannot
/// fuse across.
template <typename T>
[[gnu::always_inline]] inline void round_alone(T& x) {
#ifdef AIFT_HAVE_X86_VARIANTS
  asm("" : "+v"(x));
#endif
  (void)x;
}

/// One compiled variant of a kernel.
template <typename Fn>
struct IsaVariant {
  const char* isa;  ///< "avx512f", "avx2", "sse2" or "generic"
  Fn fn;
};

/// The variants this CPU can run, fastest first, so a kernel's dispatch
/// takes front() and tests pin every entry against the others. The
/// x86-only variants are ignored (pass nullptr) on other targets, where
/// `baseline` is the only entry.
template <typename Fn>
[[nodiscard]] std::vector<IsaVariant<Fn>> runnable_variants(
    [[maybe_unused]] Fn avx512f, [[maybe_unused]] Fn avx2, Fn baseline) {
  std::vector<IsaVariant<Fn>> out;
#ifdef AIFT_HAVE_X86_VARIANTS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) out.push_back({"avx512f", avx512f});
  if (__builtin_cpu_supports("avx2")) out.push_back({"avx2", avx2});
  out.push_back({"sse2", baseline});
#else
  out.push_back({"generic", baseline});
#endif
  return out;
}

}  // namespace aift
