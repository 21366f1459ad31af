// RaidNode: the background re-encoder of Facebook's HDFS-RAID module,
// which the paper uses as its implementation baseline. A freshly ingested
// file lives as plain replicas; the RaidNode later converts it to an
// erasure-coded layout (here: pentagon/heptagon/heptagon-local/RAID+m/RS)
// and drops the now-redundant replicas, reclaiming storage while keeping
// -- for the codes of this paper -- an inherent double replica of every
// block. The tiering engine (src/tier/engine.h) drives the same streaming
// re-encode in both directions (demote to coded layouts, promote back to
// replication).
#pragma once

#include <functional>
#include <string>

#include "common/status.h"
#include "hdfs/minidfs.h"

namespace dblrep::hdfs {

struct RaidReport {
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
  std::size_t stripes_written = 0;

  double overhead_before(std::size_t logical) const {
    return logical ? static_cast<double>(bytes_before) / logical : 0.0;
  }
  double overhead_after(std::size_t logical) const {
    return logical ? static_cast<double>(bytes_after) / logical : 0.0;
  }
};

class RaidNode {
 public:
  explicit RaidNode(MiniDfs& dfs) : dfs_(&dfs) {}

  /// Re-encodes `path` with `target_code_spec` (e.g. a 3-rep file into a
  /// pentagon file). The file keeps its path and block size. Reads go
  /// through the normal client path (degraded stripes decode on the fly),
  /// and every byte the re-encode moves is accounted under the kRetier
  /// transfer class -- throttleable like repair, distinguishable from
  /// client traffic in the traffic ledger's per-class view.
  ///
  /// Safety: the new layout lands under `path + ".raid-tmp"` and takes
  /// over the path via MiniDfs::replace_file -- publish-then-delete, so
  /// `path` resolves to a complete, readable layout at every instant. A
  /// delete (or rename) of `path` racing the re-encode wins: replace_file
  /// returns NOT_FOUND, the temp file is dropped, and the error surfaces.
  Result<RaidReport> raid_file(const std::string& path,
                               const std::string& target_code_spec);

  /// Test hook: invoked once mid-stream, after the first chunk is appended
  /// to the temp layout (chaos uses it to land node failures and crashes
  /// in the middle of a transition).
  void set_mid_stream_hook(std::function<void()> hook) {
    mid_stream_hook_ = std::move(hook);
  }

 private:
  MiniDfs* dfs_;
  std::function<void()> mid_stream_hook_;
};

}  // namespace dblrep::hdfs
