// Streaming client tour: handle-based ingest, byte-range reads, and async
// futures -- the client API the paper's Section 4 workloads (incremental
// block appends, MapReduce-split reads) actually need.
//
// Walks through: a FileWriter streaming a file in sub-stripe appends
// (pipelined stripe stores, bounded in-flight window), stat of the open
// handle, pread of ranges crossing block/stripe boundaries, a degraded
// range read after two node failures, and a burst of async preads kept in
// flight on the pool.
//
// Build & run:  ./build/examples/streaming_client
#include <iostream>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "hdfs/client.h"
#include "hdfs/minidfs.h"

int main() {
  using namespace dblrep;
  constexpr std::size_t kBlock = 4096;

  cluster::Topology topology;
  topology.num_nodes = 25;
  hdfs::MiniDfs dfs(topology, /*seed=*/2014);
  hdfs::Client client(dfs);

  // 1. Stream a file through a handle: rs-10-4 stripes are 10 blocks of
  //    logical data, but the writer takes any chunk size -- it buffers
  //    sub-stripe tails and dispatches each completed stripe to the pool.
  const Buffer data = random_buffer(kBlock * 25 + 1234, /*seed=*/1);
  auto writer = client.create("/logs/ingest", "rs-10-4", kBlock).value();
  std::size_t offset = 0;
  const std::size_t chunk = 3 * kBlock / 2;  // never block/stripe aligned
  while (offset < data.size()) {
    const std::size_t len = std::min(chunk, data.size() - offset);
    if (!writer.append(ByteSpan(data).subspan(offset, len)).is_ok()) break;
    offset += len;
  }
  const auto open_stat = dfs.stat("/logs/ingest").value();
  std::cout << "before close: " << open_stat.length << " bytes stored, "
            << (open_stat.sealed ? "sealed" : "open") << "\n";
  if (!writer.close().is_ok()) {
    std::cerr << "close failed\n";
    return 1;
  }
  const auto sealed_stat = dfs.stat("/logs/ingest").value();
  std::cout << "after close:  " << sealed_stat.length << " bytes, "
            << sealed_stat.stripes.size() << " stripes, "
            << (sealed_stat.sealed ? "sealed" : "open") << "\n\n";

  // 2. Byte-range reads: only the covering stripes resolve. Compare the
  //    client bytes of one split vs the whole file.
  const double before_range = dfs.traffic().client_bytes();
  const auto split = client.pread("/logs/ingest", 7 * kBlock + 100, kBlock);
  const double range_bytes = dfs.traffic().client_bytes() - before_range;
  const auto whole = client.read("/logs/ingest");
  const double whole_bytes =
      dfs.traffic().client_bytes() - before_range - range_bytes;
  if (!split.is_ok()) {
    std::cerr << "pread failed: " << split.status().to_string() << "\n";
    return 1;
  }
  std::cout << "pread of " << split->size() << " B moved "
            << format_bytes(range_bytes) << " off the wire; read_file moved "
            << format_bytes(whole_bytes) << "\n";

  // 3. Degraded range read: fail two nodes of the first stripe's group
  //    and read the same split -- the missing block decodes on the fly.
  const auto group =
      dfs.catalog().stripe(sealed_stat.stripes.front()).group;
  (void)dfs.fail_node(group[0]);
  (void)dfs.fail_node(group[1]);
  const auto degraded = client.pread("/logs/ingest", 0, 2 * kBlock);
  std::cout << "degraded pread under 2 failures: "
            << (degraded.is_ok() ? "ok, " + std::to_string(degraded->size()) +
                                       " bytes"
                                 : degraded.status().to_string())
            << "\n\n";

  // 4. Async: keep a burst of range reads in flight on the pool and drain
  //    the futures in order.
  std::vector<exec::Future<Result<SharedBlock>>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    futures.push_back(
        client.pread_async("/logs/ingest", i * kBlock, kBlock / 2));
  }
  std::size_t async_bytes = 0;
  bool all_ok = true;
  for (auto& future : futures) {
    auto result = future.get();
    all_ok = all_ok && result.is_ok();
    if (result.is_ok()) async_bytes += result->size();
  }
  std::cout << "16 async preads in flight -> " << async_bytes << " bytes, "
            << (all_ok ? "all ok" : "errors") << "\n";
  return all_ok && degraded.is_ok() && whole.is_ok() ? 0 : 1;
}
