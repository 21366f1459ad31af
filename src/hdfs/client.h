// hdfs::Client: the handle-based client half of the data plane.
//
// MiniDfs plays the NameNode + storage-core role (namespace, placement,
// stripe transactions, range reads); this layer is what application code
// holds -- the paper's Section 4 workloads (HDFS-RAID under MapReduce) are
// driven by clients that append blocks incrementally and read byte ranges
// at task granularity, not whole files:
//
//  * FileWriter -- open -> append(ByteSpan)* -> close(). Every stripe is
//    placed on the caller's thread (placement draws stay deterministic in
//    append order) and stored by MiniDfs::store_stripes, along one of two
//    routes. The stripe-aligned middle of a span is placed with one
//    allocate_stripes call and stored zero-copy by one synchronous
//    store_stripes call (the codec's systematic symbols are views into the
//    caller's memory), which finishes before append returns since the
//    caller reclaims the span. Only ragged heads/tails are copied, into
//    the (pre-reserved) sub-stripe buffer; a stripe completed there is
//    stored asynchronously on the DFS pool, with a bounded number of
//    stripes in flight -- so a drip-fed file larger than memory streams
//    through a fixed-size window. close() flushes the zero-padded tail,
//    waits for the pipeline, and publishes the path (readers see nothing
//    earlier); any failure rolls the whole file back.
//  * pread(path, offset, len) -- byte-range reads resolving only the
//    stripes covering the range, with per-block degraded-read fallback.
//    Reads return SharedBlocks, as MiniDfs does: each healthy block is
//    verified in the pass that lands it in the result.
//  * *_async variants -- the same operations returning exec::Future,
//    composed on the DFS's ThreadPool so a single caller can keep hundreds
//    of operations in flight without burning a thread per call.
//
// A Client is a cheap stateless facade over a MiniDfs and is safe to share
// or recreate freely; a FileWriter handle is single-owner and not
// thread-safe (one writer per path by construction -- begin_write reserves
// the name). MiniDfs::write_file / read_file remain as thin wrappers over
// the same primitives.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"
#include "exec/future.h"
#include "hdfs/minidfs.h"

namespace dblrep::hdfs {

/// Client-side knobs (per handle; construction-time).
struct ClientOptions {
  /// Buffered-stripe stores a FileWriter keeps in flight before append
  /// blocks on the oldest one. Bounds ingest memory to
  /// max_inflight_stripes stripe buffers. 0 = auto: 2 * (pool workers + 1).
  std::size_t max_inflight_stripes = 0;

  /// Transfer classes this handle's traffic is accounted under. Foreground
  /// clients keep the defaults; the tiering re-encode path constructs its
  /// Client with both set to kRetier, making transition bytes visible to
  /// the QoS throttler and the traffic ledger like repair bytes.
  net::TransferClass read_class = net::TransferClass::kClientRead;
  net::TransferClass write_class = net::TransferClass::kClientWrite;
};

/// Byte-accounting probe for the append path: how much of the ingested
/// data was staged through the writer's sub-stripe buffer versus encoded
/// zero-copy straight from caller spans. Stripe-aligned appends must show
/// buffered_bytes == 0 (tests assert this).
struct WriterStats {
  std::size_t buffered_bytes = 0;   ///< copied into the sub-stripe buffer
  std::size_t zero_copy_bytes = 0;  ///< encoded directly from caller spans
};

/// Handle for one streaming write. Move-only, single-owner, not
/// thread-safe. Destroying a still-open writer aborts the write (the path
/// and every stored stripe roll back).
class FileWriter {
 public:
  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&&) = delete;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter();

  /// Appends logical bytes. A stripe completed in the writer's buffer is
  /// stored on the pool; the call blocks on it only when
  /// max_inflight_stripes stores are already in flight. Full stripes taken
  /// zero-copy from `data` are stored before append returns (the caller
  /// may reuse the span immediately after). After any failure the writer
  /// is poisoned: the first error (in stripe order -- independent of pool
  /// scheduling) is returned from every subsequent append/close.
  Status append(ByteSpan data);

  /// Flushes the partial tail stripe, waits for every in-flight store,
  /// and publishes the file; on any recorded failure rolls back instead
  /// and returns that first error. The writer is closed either way.
  Status close();

  /// Waits for in-flight stores, then rolls the whole write back.
  Status abort();

  bool is_open() const { return open_; }
  const std::string& path() const { return path_; }

  /// Logical bytes accepted so far (buffered + dispatched). The tail of
  /// an append that failed partway is not counted.
  std::size_t bytes_appended() const { return appended_; }

  /// Copy-vs-zero-copy accounting for the bytes accepted so far.
  const WriterStats& stats() const { return stats_; }

 private:
  friend class Client;
  FileWriter(MiniDfs* dfs, std::string path, std::size_t stripe_bytes,
             std::size_t max_inflight, net::TransferClass write_class);

  /// Allocates the next stripe (serially, on this thread) and spawns the
  /// store of its owned bytes on the pool, first draining to keep the
  /// window bounded. Failures land in deferred_, which is returned.
  Status dispatch(Buffer stripe_data);

  /// Stores whole stripes zero-copy from `span` (a multiple of the stripe
  /// size): one allocate_stripes, one synchronous store_stripes. On
  /// failure, drains the window first so a lower in-flight stripe's error
  /// wins. Failures land in deferred_, which is returned.
  Status store_span(ByteSpan span);

  /// Waits for in-flight stores (front first, i.e. stripe order) until at
  /// most `allow` remain; records the first failure in deferred_.
  void drain(std::size_t allow);

  /// Common close/abort tail: drains everything, then commits or aborts.
  Status finish(bool commit);

  MiniDfs* dfs_;
  std::string path_;
  std::size_t stripe_bytes_;
  std::size_t max_inflight_;
  net::TransferClass write_class_;
  Buffer buffer_;  // the partial stripe not yet dispatched
  std::deque<exec::Future<Status>> inflight_;  // stores, in stripe order
  Status deferred_;  // first failure; poisons the writer
  std::size_t appended_ = 0;
  WriterStats stats_;
  bool open_ = false;
};

class Client {
 public:
  explicit Client(MiniDfs& dfs, ClientOptions options = {});

  MiniDfs& dfs() const { return *dfs_; }

  // --------------------------------------------------------------- write

  /// Opens a streaming writer for a new file. The path is reserved
  /// immediately (concurrent creators fail with ALREADY_EXISTS) and
  /// published only by close().
  Result<FileWriter> create(const std::string& path,
                            const std::string& code_spec,
                            std::size_t block_size);

  /// Bulk write of an in-memory buffer: the same transaction a FileWriter
  /// runs, but with all stripes allocated up front and encoded zero-copy
  /// from `data` in parallel (MiniDfs::write_file is this same path).
  /// Uploads are charged under the handle's write_class, as appends are.
  Status write(const std::string& path, ByteSpan data,
               const std::string& code_spec, std::size_t block_size);

  // ---------------------------------------------------------------- read

  Result<SharedBlock> read(const std::string& path);

  /// Byte-range read; see MiniDfs::pread for the EOF/clamping contract.
  Result<SharedBlock> pread(const std::string& path, std::size_t offset,
                            std::size_t len);

  Result<SharedBlock> read_block(const std::string& path,
                                 std::size_t block_index);

  // --------------------------------------------------------------- async
  //
  // Futures resolve on the DFS pool; with a zero-worker (inline) pool the
  // operation runs inside the call and the future returns ready, so async
  // and sync paths execute identical byte and traffic sequences. Don't
  // block on these futures from inside a task running on the same pool.

  exec::Future<Status> write_async(std::string path, Buffer data,
                                   std::string code_spec,
                                   std::size_t block_size);
  exec::Future<Result<SharedBlock>> read_async(std::string path);
  exec::Future<Result<SharedBlock>> pread_async(std::string path,
                                                std::size_t offset,
                                                std::size_t len);

 private:
  MiniDfs* dfs_;
  std::size_t max_inflight_;
  net::TransferClass read_class_;
  net::TransferClass write_class_;
};

}  // namespace dblrep::hdfs
