// Cross-kernel chaos determinism: one chaos seed replayed under each
// available GF kernel backend (scalar / ssse3 / avx2 / avx512 / gfni) must
// produce the identical event trace, identical datanode contents, and
// identical traffic totals. The kernels are bit-identical by contract at
// the slice level (tests/gf_kernel_test.cc); this closes the loop end to
// end -- thousands of encode/decode/repair calls deep -- so a failing
// chaos seed found on a gfni machine reproduces exactly on a scalar-only
// one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/harness.h"
#include "gf/kernel.h"

namespace dblrep::chaos {
namespace {

/// Restores the kernel active at construction when the test exits.
struct KernelGuard {
  std::string original = gf::active_kernel().name;
  ~KernelGuard() { gf::set_active_kernel(original); }
};

ChaosConfig scenario(const std::string& code_spec) {
  ChaosConfig config;
  config.code_spec = code_spec;
  config.horizon_s = 10.0;
  config.preload_files = 2;
  config.stripes_per_file = 1;
  return config;
}

TEST(ChaosCrossKernel, SameSeedSameTraceUnderEveryKernel) {
  KernelGuard guard;
  // rs-10-4 exercises general GF coefficients; heptagon-local the
  // XOR/partial-parity paths.
  for (const char* spec : {"rs-10-4", "heptagon-local"}) {
    std::vector<ChaosReport> reports;
    std::vector<std::string> names;
    for (const gf::GfKernel* kernel : gf::supported_kernels()) {
      ASSERT_TRUE(gf::set_active_kernel(kernel->name));
      reports.push_back(ChaosHarness(scenario(spec)).run_seed(17));
      names.push_back(kernel->name);
    }
    ASSERT_FALSE(reports.empty());
    EXPECT_TRUE(reports.front().ok())
        << spec << " under " << names.front() << ":\n"
        << reports.front().trace_to_string();
    for (std::size_t i = 1; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].trace, reports.front().trace)
          << spec << ": kernel " << names[i] << " diverged from "
          << names.front();
      EXPECT_EQ(reports[i].final_storage_fingerprint,
                reports.front().final_storage_fingerprint)
          << spec << ": datanode contents differ under " << names[i];
      EXPECT_EQ(reports[i].traffic_total_bytes,
                reports.front().traffic_total_bytes)
          << spec << ": traffic totals differ under " << names[i];
      EXPECT_EQ(reports[i].final_fingerprint,
                reports.front().final_fingerprint)
          << spec << ": cluster state differs under " << names[i];
    }
  }
}

}  // namespace
}  // namespace dblrep::chaos
