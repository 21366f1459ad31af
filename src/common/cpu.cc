#include "common/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>

#include <cstdint>

namespace dblrep {
namespace {

std::uint64_t xgetbv0() {
  std::uint32_t eax, edx;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

bool os_zmm_usable() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & (1u << 27))) return false;  // OSXSAVE: xgetbv is executable
  // XMM (bit 1), YMM (2), opmask (5), ZMM0-15 upper (6), ZMM16-31 (7).
  constexpr std::uint64_t kAvx512State = 0xe6;
  return (xgetbv0() & kAvx512State) == kAvx512State;
}

struct Leaf7 {
  unsigned ebx = 0, ecx = 0;
};

Leaf7 cpuid_leaf7() {
  Leaf7 out;
  unsigned eax = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &out.ebx, &out.ecx, &edx)) return {};
  return out;
}

}  // namespace

bool cpu_has_avx512() {
  const Leaf7 leaf = cpuid_leaf7();
  const bool f = leaf.ebx & (1u << 16);
  const bool bw = leaf.ebx & (1u << 30);
  const bool vl = leaf.ebx & (1u << 31);
  return f && bw && vl && os_zmm_usable();
}

bool cpu_has_gfni() { return (cpuid_leaf7().ecx & (1u << 8)) != 0; }

bool cpu_has_vpclmulqdq() { return (cpuid_leaf7().ecx & (1u << 10)) != 0; }

}  // namespace dblrep

#else  // non-x86: no probed feature exists.

namespace dblrep {
bool cpu_has_avx512() { return false; }
bool cpu_has_gfni() { return false; }
bool cpu_has_vpclmulqdq() { return false; }
}  // namespace dblrep

#endif
