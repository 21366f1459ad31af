// Degraded reads on the mini-HDFS data plane (Section 3.1 of the paper).
//
// Writes a pentagon-coded file and a (10,9) RAID+m file, fails both
// replica holders of one block in each, then reads the block through the
// client path. The traffic ledger shows the paper's numbers on the wire:
// 3 block transfers for the pentagon (partial parities) vs 9 for RAID+m.
//
// Build & run:  ./build/examples/degraded_read
#include <iostream>

#include "cluster/topology.h"
#include "hdfs/minidfs.h"

namespace {

using namespace dblrep;

void demo(const std::string& code_spec) {
  constexpr std::size_t kBlock = 1024;
  cluster::Topology topology;  // 25 nodes
  hdfs::MiniDfs dfs(topology, /*seed=*/2014);

  const Buffer data = random_buffer(kBlock * 9, 99);
  if (auto s = dfs.write_file("/data", data, code_spec, kBlock); !s.is_ok()) {
    std::cerr << "write failed: " << s.to_string() << "\n";
    return;
  }

  // Kill both holders of data block 0.
  const auto info = *dfs.stat("/data");
  const auto& code = *dfs.code_for("/data").value();
  std::cout << "== " << code.params().name << " ==\n";
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    const auto node = dfs.catalog().node_of({info.stripes[0], slot});
    std::cout << "failing node " << node << " (holds a replica of block 0)\n";
    (void)dfs.fail_node(node);
  }

  dfs.traffic().reset();
  const auto block = dfs.read_block("/data", 0);
  if (!block.is_ok()) {
    std::cerr << "read failed: " << block.status().to_string() << "\n";
    return;
  }
  const bool intact = std::equal(block->begin(), block->end(), data.begin());
  std::cout << "on-the-fly repair delivered the block (intact: "
            << (intact ? "yes" : "no") << ")\n";
  std::cout << "network cost: " << dfs.traffic().total_bytes() / kBlock
            << " blocks\n\n";
}

}  // namespace

int main() {
  std::cout << "Degraded read with both replicas lost (paper Section 3.1):\n"
               "expect 3 blocks for the pentagon vs 9 for (10,9) RAID+m.\n\n";
  demo("pentagon");
  demo("raidm-9");
  return 0;
}
