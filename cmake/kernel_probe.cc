// Configure-time probe: prints the GF kernels this host can execute, so
// CMake only registers forced-kernel test variants that can actually run
// (a DBLREP_GF_KERNEL the dispatcher can't honor silently falls back,
// which would report green coverage for a kernel that never executed).
// It compiles in the CPUID/XCR0 probe the dispatchers themselves run.
#include <cstdio>

#include "common/cpu.cc"

int main() {
  std::printf("scalar");
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("ssse3")) std::printf(";ssse3");
  if (__builtin_cpu_supports("avx2")) std::printf(";avx2");
  if (dblrep::cpu_has_avx512()) std::printf(";avx512");
  if (dblrep::cpu_has_avx512() && dblrep::cpu_has_gfni()) {
    std::printf(";gfni");
  }
#endif
  std::printf("\n");
  return 0;
}
