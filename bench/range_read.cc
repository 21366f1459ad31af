// Byte-range read bench: client bytes and latency of pread swept over
// range size x scheme x failure state, against whole-file read_file as the
// baseline. Emits BENCH_range_read.json.
//
// The paper's Section 4 workloads read at MapReduce-task granularity --
// one split, not one file -- and XORing Elephants measures degraded *range*
// reads as the dominant foreground traffic in production. This bench pins
// the client-API claim behind both: a range read resolves only the stripes
// covering the range, so its wire cost scales with the range, not the
// file.
//
// Acceptance gates (asserted at exit, mirroring the PR acceptance bar):
// for every scheme and failure state, concatenating pread chunks over a
// partition of [0, length) is byte-identical to read_file; and a
// one-block pread moves strictly fewer client bytes than read_file.
//
// Runs on the inline (serial) pool so every number is a deterministic
// function of the seed.
//
// Usage: range_read [--block-size=BYTES] [--stripes=N] [--schemes=CSV]
//                   [--failures=CSV] [--reps=N] [--json=PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/check.h"
#include "ec/registry.h"
#include "hdfs/client.h"
#include "hdfs/minidfs.h"
#include "report.h"

namespace {

using namespace dblrep;
using Clock = std::chrono::steady_clock;

struct Sample {
  std::string scheme;
  std::size_t failures = 0;
  std::string range_label;
  std::size_t range_bytes = 0;
  double client_bytes_per_read = 0;
  double total_bytes_per_read = 0;
  double mean_us = 0;
  // Baseline whole-file read of the same state.
  double read_file_client_bytes = 0;
  bool partition_identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 4096;
  std::size_t stripes = 6;
  std::size_t reps = 8;
  std::vector<std::string> schemes = ec::paper_code_specs();
  std::vector<std::size_t> failure_counts = {0, 1, 2, 3};
  std::string json_path = "BENCH_range_read.json";
  bench::Flags flags;
  flags.add("block-size", &block_size);
  flags.add("stripes", &stripes);
  flags.add("reps", &reps);
  flags.add("schemes", &schemes);
  flags.add("failures", &failure_counts);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (block_size == 0 || stripes == 0 || reps == 0) {
    return flags.fail("--block-size, --stripes, --reps must be > 0");
  }

  constexpr std::uint64_t kSeed = 29;
  cluster::Topology topology;
  topology.num_nodes = 25;

  std::vector<Sample> samples;
  bench::Report report("range_read");

  for (const auto& spec : schemes) {
    const auto code = ec::make_code(spec).value();
    const std::size_t k = code->data_blocks();
    const std::size_t stripe_bytes = k * block_size;
    const std::size_t file_bytes = stripes * stripe_bytes + block_size / 2;
    const Buffer data = random_buffer(file_bytes, 77);
    const int tolerance = code->params().fault_tolerance;

    for (const std::size_t failures : failure_counts) {
      if (failures > static_cast<std::size_t>(tolerance)) continue;

      hdfs::MiniDfs dfs(topology, kSeed, nullptr);
      hdfs::Client client(dfs);
      DBLREP_CHECK(client.write("/f", data, spec, block_size).is_ok());
      if (failures > 0) {
        const auto group =
            dfs.catalog().stripe(dfs.stat("/f")->stripes.front()).group;
        for (std::size_t i = 0; i < failures; ++i) {
          DBLREP_CHECK(dfs.fail_node(group[i]).is_ok());
        }
      }

      // Baseline: whole-file read cost in this failure state.
      const double base_client0 = dfs.traffic().client_bytes();
      const auto whole = client.read("/f");
      DBLREP_CHECK_MSG(whole.is_ok(), spec << " failures=" << failures
                                           << ": " << whole.status().to_string());
      const double read_file_client =
          dfs.traffic().client_bytes() - base_client0;

      // Partition identity gate: block-aligned and ragged chunk cycles.
      bool partition_identical = true;
      for (const std::size_t chunk :
           {block_size, stripe_bytes, 3 * block_size / 2 + 1}) {
        Buffer reassembled;
        std::size_t offset = 0;
        while (offset < file_bytes) {
          const auto piece = client.pread("/f", offset, chunk);
          DBLREP_CHECK_MSG(piece.is_ok(),
                           spec << " pread@" << offset << ": "
                                << piece.status().to_string());
          reassembled.insert(reassembled.end(), piece->begin(), piece->end());
          offset += piece->size();
        }
        partition_identical = partition_identical && (reassembled == *whole);
      }
      const std::string state =
          spec + " failures=" + std::to_string(failures) + ": ";
      report.gate(state + "concatenated preads identical to read_file",
                  partition_identical);

      const std::vector<std::pair<std::string, std::size_t>> ranges = {
          {"1_block", block_size},
          {"half_stripe", std::max<std::size_t>(stripe_bytes / 2, 1)},
          {"1_stripe", stripe_bytes},
          {"4_stripes", std::min(4 * stripe_bytes, file_bytes)},
      };
      for (const auto& [label, range_bytes] : ranges) {
        const double client0 = dfs.traffic().client_bytes();
        const double total0 = dfs.traffic().total_bytes();
        const auto start = Clock::now();
        for (std::size_t r = 0; r < reps; ++r) {
          // Block-aligned sliding offsets keep every rep inside the file.
          const std::size_t offset =
              ((r * 3) % std::max<std::size_t>(
                             (file_bytes - range_bytes) / block_size, 1)) *
              block_size;
          const auto got = client.pread("/f", offset, range_bytes);
          DBLREP_CHECK_MSG(got.is_ok(), spec << " " << label << ": "
                                             << got.status().to_string());
        }
        const double us = std::chrono::duration<double, std::micro>(
                              Clock::now() - start)
                              .count();

        Sample sample;
        sample.scheme = spec;
        sample.failures = failures;
        sample.range_label = label;
        sample.range_bytes = range_bytes;
        sample.client_bytes_per_read =
            (dfs.traffic().client_bytes() - client0) /
            static_cast<double>(reps);
        sample.total_bytes_per_read =
            (dfs.traffic().total_bytes() - total0) / static_cast<double>(reps);
        sample.mean_us = us / static_cast<double>(reps);
        sample.read_file_client_bytes = read_file_client;
        sample.partition_identical = partition_identical;
        samples.push_back(sample);

        if (label == "1_block") {
          report.gate(state + "one-block pread client bytes below read_file",
                      read_file_client, sample.client_bytes_per_read,
                      sample.client_bytes_per_read < read_file_client);
        }
      }
      std::fprintf(stderr,
                   "%-15s failures=%zu  1-block %.0f B/client-read vs "
                   "read_file %.0f B (partition identical=%d)\n",
                   spec.c_str(), failures,
                   samples[samples.size() - ranges.size()]
                       .client_bytes_per_read,
                   read_file_client, partition_identical ? 1 : 0);
    }
  }

  auto& json = report.json();
  json.field("block_size", block_size)
      .field("stripes", stripes)
      .field("reps", reps);
  json.begin_array("results");
  for (const auto& s : samples) {
    json.begin_object()
        .field("scheme", s.scheme)
        .field("failures", s.failures)
        .field("range", s.range_label)
        .field("range_bytes", s.range_bytes)
        .field("client_bytes_per_read", s.client_bytes_per_read)
        .field("total_bytes_per_read", s.total_bytes_per_read)
        .field("mean_us", s.mean_us)
        .field("read_file_client_bytes", s.read_file_client_bytes)
        .field("partition_identical_to_read_file", s.partition_identical)
        .end();
  }
  json.end();
  return report.finish(json_path);
}
