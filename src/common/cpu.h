// The x86-64 feature probe behind every runtime SIMD dispatcher (the GF
// kernels and the CRC-32C). __builtin_cpu_supports covers ssse3, avx2 and
// sse4.2, but AVX-512 usability also depends on the OS saving ZMM/opmask
// state (XCR0), and "gfni" / "vpclmulqdq" as feature strings are not
// portable across the toolchain range we build with -- so these read the
// CPUID leaves and XCR0 directly. Every probe is false off x86-64.
#pragma once

namespace dblrep {

/// AVX-512 F, BW and VL, with the OS saving ZMM and opmask state.
bool cpu_has_avx512();

/// GFNI (vgf2p8affineqb).
bool cpu_has_gfni();

/// VPCLMULQDQ: carry-less multiplies on every 128-bit lane of a vector.
bool cpu_has_vpclmulqdq();

}  // namespace dblrep
