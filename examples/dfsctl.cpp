// dfsctl: a small command-driven shell over the mini-HDFS, for poking at
// the coded data plane interactively or from scripts.
//
// Usage: dfsctl [nodes] [racks] [--net]   (then commands on stdin)
//
// --net switches on the traffic ledger's capture: every transfer the DFS
// makes is kept, and `traffic` additionally replays the capture through
// net::NetworkModel to show which fabric links the byte pattern actually
// loads (and asserts network conservation on the replay).
//
// Commands:
//   write <path> <code> <blocks>   write <blocks> random data blocks
//   append <path> [<code>] [<blocks>]
//                                  stream blocks through a FileWriter
//                                  handle: the first append on a path
//                                  opens it (<code> required, default
//                                  blocks 1); repeat to grow the file,
//                                  then `close` to seal it
//   close <path>                   seal an open append handle
//   read <path>                    read the whole file (reports bytes, crc)
//   pread <path> <offset> <len>    read a byte range (reports bytes, crc)
//   stat <path>                    show file info (sealed vs open)
//   ls                             list files
//   rm <path>                      delete a file
//   raid <path> <code>             re-encode a file (HDFS-RAID style)
//   fail <node> | restart <node>   membership control
//   repair <node> | repair-all     rebuild lost blocks
//   scrub | heal                   verify / verify-and-fix all stripes
//   heat [<path>]                  decayed access heat (every client read/
//                                  write feeds a tier::HeatTracker; the
//                                  logical clock ticks one second per
//                                  command). With a path: that file's heat,
//                                  age, and the tier the policy would move
//                                  it to. Without: all tracked files,
//                                  hottest first
//   tier <path> [--target=<code>]  re-encode along the tiering ladder:
//                                  with --target, force that layout (must
//                                  be on the ladder); without, execute the
//                                  policy's decision for the file's current
//                                  heat (a no-op when already at target)
//   traffic                        show network counters: the intra-rack /
//                                  cross-rack / client / total split, the
//                                  top per-node senders and receivers, and
//                                  (with --net) per-link utilization; checks
//                                  ledger (and, with --net, network)
//                                  conservation
//   quit
//
// Exit code: 0 when every command succeeded, 1 if any command reported an
// error (unknown commands and conservation violations count) -- so
// scripted sessions can gate on it.
//
// Example session:
//   echo "append /a pentagon 3
//   append /a 3
//   close /a
//   pread /a 4096 8192
//   fail 0
//   fail 1
//   read /a
//   repair-all
//   traffic
//   quit" | ./build/examples/dfsctl
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "common/bytes.h"
#include "exec/thread_pool.h"
#include "hdfs/client.h"
#include "hdfs/minidfs.h"
#include "hdfs/raidnode.h"
#include "net/model.h"
#include "net/transfer.h"
#include "sim/event_queue.h"
#include "tier/engine.h"

int main(int argc, char** argv) {
  using namespace dblrep;
  constexpr std::size_t kBlock = 4096;

  cluster::Topology topology;
  bool with_net = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--net") {
      with_net = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0) {
    topology.num_nodes = std::strtoul(positional[0], nullptr, 10);
  }
  if (positional.size() > 1) {
    topology.num_racks = std::strtoul(positional[1], nullptr, 10);
  }
  std::vector<net::TransferRecord> captured;  // everything since start
  tier::HeatTracker heat;
  hdfs::MiniDfsOptions options;
  options.access_observer = &heat;
  hdfs::MiniDfs dfs(topology, /*seed=*/2014, &exec::default_pool(), options);
  dfs.traffic().set_capture(with_net);
  hdfs::Client client(dfs);
  hdfs::RaidNode raid(dfs);
  tier::TieringEngine engine(dfs, heat, tier::TieringPolicy{});
  std::map<std::string, hdfs::FileWriter> writers;  // open append handles

  std::cout << "mini-DFS up: " << topology.num_nodes << " nodes, "
            << topology.num_racks << " rack(s), block size " << kBlock
            << " B. Type commands ('quit' to exit).\n";

  bool any_error = false;
  const auto note = [&any_error](bool ok) {
    if (!ok) any_error = true;
  };

  std::string line;
  std::uint64_t write_seed = 1;
  double clock_s = 0;  // logical heat clock: one second per command
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    heat.advance_to(clock_s += 1.0);

    if (cmd == "write") {
      std::string path, code;
      std::size_t blocks = 0;
      in >> path >> code >> blocks;
      const Buffer data = random_buffer(kBlock * blocks, write_seed++);
      const auto status = client.write(path, data, code, kBlock);
      note(status.is_ok());
      std::cout << (status.is_ok()
                        ? "wrote " + std::to_string(data.size()) + " bytes"
                        : status.to_string())
                << "\n";
    } else if (cmd == "append") {
      std::string path;
      in >> path;
      // Optional trailing block count; a non-numeric token must error (not
      // silently default) so scripted sessions gate correctly, and the
      // count is bounded so "-1" can't wrap into a huge allocation.
      const auto parse_blocks = [&](std::size_t& blocks) {
        std::string token;
        if (!(in >> token)) return true;  // absent: keep the default
        constexpr std::size_t kMaxBlocks = 1u << 20;
        const bool digits =
            !token.empty() &&
            token.find_first_not_of("0123456789") == std::string::npos;
        blocks = digits ? std::strtoul(token.c_str(), nullptr, 10) : 0;
        if (blocks == 0 || blocks > kMaxBlocks) {
          note(false);
          std::cout << "append: expected a block count in [1, " << kMaxBlocks
                    << "], got '" << token << "'\n";
          return false;
        }
        return true;
      };
      std::size_t blocks = 1;
      const auto it = writers.find(path);
      if (it == writers.end()) {
        std::string code;
        if (!(in >> code)) {
          note(false);
          std::cout << "append: no open handle for " << path
                    << " (usage: append <path> <code> [<blocks>])\n";
          continue;
        }
        if (!parse_blocks(blocks)) continue;
        auto writer = client.create(path, code, kBlock);
        if (!writer.is_ok()) {
          note(false);
          std::cout << writer.status().to_string() << "\n";
          continue;
        }
        writers.emplace(path, std::move(*writer));
      } else {
        // Handle already open: a repeated "append <path> <code> <n>" must
        // error, not misparse the code as a count.
        if (!parse_blocks(blocks)) continue;
      }
      auto& writer = writers.at(path);
      const Buffer data = random_buffer(kBlock * blocks, write_seed++);
      const Status status = writer.append(data);
      note(status.is_ok());
      if (status.is_ok()) {
        std::cout << "appended " << data.size() << " bytes ("
                  << writer.bytes_appended() << " total, open)\n";
      } else {
        std::cout << status.to_string() << "\n";
        (void)writer.abort();
        writers.erase(path);
      }
    } else if (cmd == "close") {
      std::string path;
      in >> path;
      const auto it = writers.find(path);
      if (it == writers.end()) {
        note(false);
        std::cout << "close: no open handle for " << path << "\n";
        continue;
      }
      const Status status = it->second.close();
      writers.erase(it);
      note(status.is_ok());
      std::cout << (status.is_ok() ? "sealed " + path : status.to_string())
                << "\n";
    } else if (cmd == "read") {
      std::string path;
      in >> path;
      const auto data = client.read(path);
      note(data.is_ok());
      if (data.is_ok()) {
        std::cout << "read " << data->size() << " bytes, crc32c=" << std::hex
                  << crc32c(*data) << std::dec << "\n";
      } else {
        std::cout << data.status().to_string() << "\n";
      }
    } else if (cmd == "pread") {
      std::string path;
      std::size_t offset = 0, len = 0;
      if (!(in >> path >> offset >> len)) {
        note(false);
        std::cout << "usage: pread <path> <offset> <len>\n";
        continue;
      }
      const auto data = client.pread(path, offset, len);
      note(data.is_ok());
      if (data.is_ok()) {
        std::cout << "pread [" << offset << ", +" << len << ") -> "
                  << data->size() << " bytes, crc32c=" << std::hex
                  << crc32c(*data) << std::dec << "\n";
      } else {
        std::cout << data.status().to_string() << "\n";
      }
    } else if (cmd == "stat") {
      std::string path;
      in >> path;
      const auto info = dfs.stat(path);
      note(info.is_ok());
      if (info.is_ok()) {
        std::cout << path << ": " << info->length << " bytes, code "
                  << info->code_spec << ", " << info->stripes.size()
                  << " stripe(s), "
                  << (info->sealed ? "sealed" : "open (write in flight)")
                  << "\n";
      } else {
        std::cout << info.status().to_string() << "\n";
      }
    } else if (cmd == "ls") {
      for (const auto& path : dfs.list_files()) std::cout << path << "\n";
    } else if (cmd == "rm") {
      std::string path;
      in >> path;
      const Status status = dfs.delete_file(path);
      note(status.is_ok());
      std::cout << status.to_string() << "\n";
    } else if (cmd == "raid") {
      std::string path, code;
      in >> path >> code;
      const auto report = raid.raid_file(path, code);
      note(report.is_ok());
      if (report.is_ok()) {
        std::cout << "raided: " << report->bytes_before << " -> "
                  << report->bytes_after << " stored bytes\n";
      } else {
        std::cout << report.status().to_string() << "\n";
      }
    } else if (cmd == "fail" || cmd == "restart" || cmd == "repair") {
      int node = -1;
      in >> node;
      const Status status = cmd == "fail"      ? dfs.fail_node(node)
                            : cmd == "restart" ? dfs.restart_node(node)
                                               : dfs.repair_node(node);
      note(status.is_ok());
      std::cout << status.to_string() << "\n";
    } else if (cmd == "repair-all") {
      const Status status = dfs.repair_all();
      note(status.is_ok());
      std::cout << status.to_string() << "\n";
    } else if (cmd == "scrub") {
      const Status status = dfs.scrub();
      note(status.is_ok());
      std::cout << status.to_string() << "\n";
    } else if (cmd == "heal") {
      const auto healed = dfs.scrub_repair();
      note(healed.is_ok());
      if (healed.is_ok()) {
        std::cout << "healed " << *healed << " block(s)\n";
      } else {
        std::cout << healed.status().to_string() << "\n";
      }
    } else if (cmd == "heat") {
      const auto& policy = engine.policy();
      const auto describe = [&](const std::string& path, double h) {
        std::cout << path << ": heat=" << h << ", age=" << heat.age_s(path)
                  << "s";
        const auto info = dfs.stat(path);
        if (info.is_ok()) {
          const auto current = policy.tier_of(info->code_spec);
          if (current.is_ok()) {
            const std::size_t target = policy.target_tier(h, *current);
            std::cout << ", tier " << info->code_spec;
            if (target != *current) {
              std::cout << " -> " << policy.ladder()[target];
            } else {
              std::cout << " (at policy target)";
            }
          } else {
            std::cout << ", layout " << info->code_spec << " (off ladder)";
          }
        }
        std::cout << "\n";
      };
      std::string path;
      if (in >> path) {
        const auto info = dfs.stat(path);
        if (!info.is_ok()) {
          note(false);
          std::cout << info.status().to_string() << "\n";
          continue;
        }
        describe(path, heat.heat(path));
      } else {
        const auto samples = heat.snapshot();
        if (samples.empty()) std::cout << "(no tracked files)\n";
        for (const auto& sample : samples) describe(sample.path, sample.heat);
      }
    } else if (cmd == "tier") {
      std::string path, target, arg;
      in >> path;
      bool bad_arg = false;
      while (in >> arg) {
        if (arg.rfind("--target=", 0) == 0 && arg.size() > 9) {
          target = arg.substr(9);
        } else {
          bad_arg = true;
        }
      }
      if (path.empty() || bad_arg) {
        note(false);
        std::cout << "usage: tier <path> [--target=<code>]\n";
        continue;
      }
      if (target.empty()) {
        // No override: execute the policy's decision for this file.
        const auto info = dfs.stat(path);
        if (!info.is_ok()) {
          note(false);
          std::cout << info.status().to_string() << "\n";
          continue;
        }
        const auto current = engine.policy().tier_of(info->code_spec);
        if (!current.is_ok()) {
          note(false);
          std::cout << "tier: " << path << " layout " << info->code_spec
                    << " is off the ladder (use --target=)\n";
          continue;
        }
        const std::size_t want =
            engine.policy().target_tier(heat.heat(path), *current);
        if (want == *current) {
          std::cout << path << " already at policy target ("
                    << info->code_spec << ")\n";
          continue;
        }
        target = engine.policy().ladder()[want];
      }
      const auto report = engine.force_transition(path, target);
      note(report.is_ok());
      if (report.is_ok()) {
        std::cout << "tiered " << path << " -> " << target << ": "
                  << report->bytes_before << " -> " << report->bytes_after
                  << " stored bytes\n";
      } else {
        std::cout << report.status().to_string() << "\n";
      }
    } else if (cmd == "traffic") {
      auto& ledger = dfs.traffic();
      std::cout << "network total: " << format_bytes(ledger.total_bytes())
                << ", intra-rack: " << format_bytes(ledger.intra_rack_bytes())
                << ", cross-rack: " << format_bytes(ledger.cross_rack_bytes())
                << ", client: " << format_bytes(ledger.client_bytes()) << "\n";
      // Top per-node senders and receivers (non-zero only).
      const auto print_top = [&](const char* label, auto bytes_of) {
        std::vector<std::pair<double, std::size_t>> ranked;
        for (std::size_t n = 0; n < topology.num_nodes; ++n) {
          const double b = bytes_of(static_cast<cluster::NodeId>(n));
          if (b > 0) ranked.emplace_back(b, n);
        }
        std::sort(ranked.rbegin(), ranked.rend());
        std::cout << label << ":";
        const std::size_t top = std::min<std::size_t>(ranked.size(), 3);
        for (std::size_t i = 0; i < top; ++i) {
          std::cout << " node" << ranked[i].second << "="
                    << format_bytes(ranked[i].first);
        }
        if (top == 0) std::cout << " (none)";
        std::cout << "\n";
      };
      print_top("top senders", [&](cluster::NodeId n) {
        return ledger.node_sent_bytes(n);
      });
      print_top("top receivers", [&](cluster::NodeId n) {
        return ledger.node_received_bytes(n);
      });
      // Ledger conservation always; network conservation on the replay.
      std::vector<std::string> violations;
      chaos::check_traffic_conservation(dfs, violations);
      if (with_net) {
        // Replay everything captured so far through the link-level model:
        // which fabric links does this byte pattern actually load?
        const auto drained = ledger.drain();
        captured.insert(captured.end(), drained.begin(), drained.end());
        sim::EventQueue queue;
        net::NetworkModel model(queue, topology, net::NetworkConfig{});
        for (const auto& record : captured) {
          model.start_transfer(record, 0.0);
        }
        queue.run();
        chaos::check_network_conservation(model, violations,
                                          /*expect_drained=*/true);
        std::vector<std::pair<double, std::size_t>> busiest;
        for (std::size_t id = 0; id < model.num_links(); ++id) {
          if (model.link(id).busy_s > 0) {
            busiest.emplace_back(model.link(id).busy_s, id);
          }
        }
        std::sort(busiest.rbegin(), busiest.rend());
        std::cout << "link replay (" << captured.size() << " transfers, "
                  << queue.now() * 1e3 << " ms makespan):\n";
        const std::size_t top = std::min<std::size_t>(busiest.size(), 8);
        for (std::size_t i = 0; i < top; ++i) {
          const net::LinkStats& link = model.link(busiest[i].second);
          std::cout << "  " << link.name << ": "
                    << format_bytes(link.bytes_in) << " in "
                    << link.transfers << " transfer(s), utilization "
                    << 100.0 * link.utilization(queue.now())
                    << "%, max depth " << link.max_queue_depth << "\n";
        }
      }
      for (const auto& v : violations) std::cout << "VIOLATION: " << v << "\n";
      note(violations.empty());
    } else {
      note(false);
      std::cout << "unknown command: " << cmd << "\n";
    }
  }
  return any_error ? 1 : 0;
}
