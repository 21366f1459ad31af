#include "hdfs/client.h"

#include <algorithm>

namespace dblrep::hdfs {

// ----------------------------------------------------------- FileWriter

FileWriter::FileWriter(MiniDfs* dfs, std::string path,
                       std::size_t stripe_bytes,
                       net::TransferClass write_class)
    : dfs_(dfs),
      path_(std::move(path)),
      stripe_bytes_(stripe_bytes),
      // The "+ 1" counts the appending thread itself; doubling keeps every
      // worker fed while the client fills the next stripe.
      max_inflight_(2 * (dfs->pool().num_workers() + 1)),
      write_class_(write_class),
      open_(true) {}

FileWriter::FileWriter(FileWriter&& other) noexcept
    : dfs_(other.dfs_),
      path_(std::move(other.path_)),
      stripe_bytes_(other.stripe_bytes_),
      max_inflight_(other.max_inflight_),
      write_class_(other.write_class_),
      buffer_(std::move(other.buffer_)),
      inflight_(std::move(other.inflight_)),
      deferred_(std::move(other.deferred_)),
      appended_(other.appended_),
      stats_(other.stats_),
      open_(other.open_) {
  other.open_ = false;
  other.inflight_.clear();
}

FileWriter::~FileWriter() {
  if (open_) (void)finish(/*commit=*/false);
}

void FileWriter::drain(std::size_t allow) {
  while (inflight_.size() > allow) {
    Status done = inflight_.front().get();
    inflight_.pop_front();
    // Front-first draining makes the recorded error the lowest-stripe
    // failure, independent of pool scheduling.
    if (!done.is_ok() && deferred_.is_ok()) deferred_ = std::move(done);
  }
}

Status FileWriter::dispatch(Buffer stripe_data) {
  // Bound the pipeline (and with it ingest memory): wait for the oldest
  // store before adding another.
  drain(max_inflight_ - 1);
  if (!deferred_.is_ok()) return deferred_;
  auto stripes = dfs_->allocate_stripes(path_, 1);
  if (!stripes.is_ok()) {
    deferred_ = stripes.status();
    return deferred_;
  }
  inflight_.push_back(exec::spawn(
      dfs_->pool(), [dfs = dfs_, path = path_, stripe = stripes->front(),
                     cls = write_class_, data = std::move(stripe_data)] {
        return dfs->store_stripes(path, std::span(&stripe, 1), data, cls);
      }));
  return Status::ok();
}

Status FileWriter::store_span(ByteSpan span) {
  auto stripes = dfs_->allocate_stripes(path_, span.size() / stripe_bytes_);
  Status stored = stripes.is_ok()
                      ? dfs_->store_stripes(path_, *stripes, span, write_class_)
                      : stripes.status();
  if (!stored.is_ok()) {
    // Stripe order: a failing store of a lower stripe still in flight
    // reports first.
    drain(0);
    if (deferred_.is_ok()) deferred_ = std::move(stored);
  }
  return deferred_;
}

Status FileWriter::append(ByteSpan data) {
  if (!open_) {
    return failed_precondition_error("append on closed writer for " + path_);
  }
  if (!deferred_.is_ok()) return deferred_;
  // Ragged bytes are copied exactly once, into the pre-reserved sub-stripe
  // buffer; the stripe-aligned middle of the span skips even that and is
  // stored zero-copy before append returns. buffer_ holds strictly less
  // than one stripe between calls: top it up first, then store the full
  // stripes straight from the span, then stash the sub-stripe tail.
  // appended_ counts only accepted bytes -- a failure returns before its
  // stripes (and the span's unconsumed tail) count.
  std::size_t pos = 0;
  if (!buffer_.empty()) {
    const std::size_t take =
        std::min(stripe_bytes_ - buffer_.size(), data.size());
    buffer_.insert(buffer_.end(), data.begin(),
                   data.begin() + static_cast<std::ptrdiff_t>(take));
    pos = take;
    appended_ += take;
    stats_.buffered_bytes += take;
    if (buffer_.size() == stripe_bytes_) {
      DBLREP_RETURN_IF_ERROR(dispatch(std::exchange(buffer_, Buffer())));
    }
  }
  const std::size_t full = (data.size() - pos) / stripe_bytes_ * stripe_bytes_;
  if (full > 0) {
    DBLREP_RETURN_IF_ERROR(store_span(data.subspan(pos, full)));
    pos += full;
    appended_ += full;
    stats_.zero_copy_bytes += full;
  }
  const std::size_t tail = data.size() - pos;
  if (tail > 0) {
    // One up-front reservation per buffer lifetime: the buffer grows to at
    // most stripe_bytes_ before it is dispatched, so reserving the full
    // stripe here avoids the log(stripe_bytes) doubling reallocations a
    // drip-fed ingest would otherwise pay per stripe.
    buffer_.reserve(stripe_bytes_);
    buffer_.insert(buffer_.end(),
                   data.begin() + static_cast<std::ptrdiff_t>(pos),
                   data.end());
    appended_ += tail;
    stats_.buffered_bytes += tail;
  }
  return deferred_;
}

Status FileWriter::finish(bool commit) {
  open_ = false;
  drain(0);
  if (commit && deferred_.is_ok()) {
    const Status committed = dfs_->commit_write(path_);
    if (!committed.is_ok()) (void)dfs_->abort_write(path_);
    return committed;
  }
  const Status aborted = dfs_->abort_write(path_);
  if (!deferred_.is_ok()) return deferred_;
  return aborted;
}

Status FileWriter::close() {
  if (!open_) {
    return failed_precondition_error("close on closed writer for " + path_);
  }
  if (deferred_.is_ok() && !buffer_.empty()) {
    // Failure lands in deferred_.
    (void)dispatch(std::exchange(buffer_, Buffer()));
  }
  return finish(/*commit=*/true);
}

Status FileWriter::abort() {
  if (!open_) {
    return failed_precondition_error("abort on closed writer for " + path_);
  }
  return finish(/*commit=*/false);
}

// --------------------------------------------------------------- Client

Client::Client(MiniDfs& dfs, ClientOptions options)
    : dfs_(&dfs),
      read_class_(options.read_class),
      write_class_(options.write_class) {}

Result<FileWriter> Client::create(const std::string& path,
                                  const std::string& code_spec,
                                  std::size_t block_size) {
  DBLREP_RETURN_IF_ERROR(dfs_->begin_write(path, code_spec, block_size));
  auto code_result = dfs_->scheme(code_spec);
  if (!code_result.is_ok()) {
    (void)dfs_->abort_write(path);
    return code_result.status();
  }
  return FileWriter(dfs_, path, (*code_result)->data_blocks() * block_size,
                    write_class_);
}

Status Client::write(const std::string& path, ByteSpan data,
                     const std::string& code_spec, std::size_t block_size) {
  return dfs_->write_file(path, data, code_spec, block_size, write_class_);
}

Result<SharedBlock> Client::read(const std::string& path) {
  return dfs_->read_file(path, read_class_);
}

Result<SharedBlock> Client::pread(const std::string& path,
                                  std::size_t offset, std::size_t len) {
  return dfs_->pread(path, offset, len, read_class_);
}

Result<SharedBlock> Client::read_block(const std::string& path,
                                       std::size_t block_index) {
  return dfs_->read_block(path, block_index, read_class_);
}

exec::Future<Status> Client::write_async(std::string path, Buffer data,
                                         std::string code_spec,
                                         std::size_t block_size) {
  MiniDfs* dfs = dfs_;
  const net::TransferClass cls = write_class_;
  return exec::spawn(dfs_->pool(),
                     [dfs, cls, path = std::move(path), data = std::move(data),
                      code_spec = std::move(code_spec), block_size] {
                       return dfs->write_file(path, data, code_spec,
                                              block_size, cls);
                     });
}

exec::Future<Result<SharedBlock>> Client::read_async(std::string path) {
  MiniDfs* dfs = dfs_;
  const net::TransferClass cls = read_class_;
  return exec::spawn(dfs_->pool(), [dfs, cls, path = std::move(path)] {
    return dfs->read_file(path, cls);
  });
}

exec::Future<Result<SharedBlock>> Client::pread_async(std::string path,
                                                      std::size_t offset,
                                                      std::size_t len) {
  MiniDfs* dfs = dfs_;
  const net::TransferClass cls = read_class_;
  return exec::spawn(dfs_->pool(),
                     [dfs, cls, path = std::move(path), offset, len] {
                       return dfs->pread(path, offset, len, cls);
                     });
}

}  // namespace dblrep::hdfs
