// Write-ahead journal of the sharded NameNode's metadata plane.
//
// Every namespace/catalog mutation appends one framed record to the owning
// shard's journal *inside the same critical section that applies it*, so a
// shard's journal is always a serialization of the state changes it has
// made. Records are framed as
//
//   [u32 payload_len] [u32 crc32c(payload)] [payload]
//
// with the payload an explicit little-endian field-by-field encoding
// (kind, global sequence number, then every record field). The CRC is what
// makes crash truncation detectable: a torn final record -- cut mid-frame,
// or CRC-mismatched -- is discarded by parse_journal, never replayed, and
// replay stops at the first bad frame (everything after a corrupt record
// is unordered debris). Snapshots serialize a whole shard image
// (namespace + pending writes + catalog stripes) with the same framing
// idea -- magic, version, length, CRC -- and clear the journal: recovery
// is snapshot + replay of the remaining records (see hdfs/recovery.h).
//
// Sequence numbers are drawn from one global counter across shards, so a
// crash point is a single number S: "every shard keeps exactly its records
// with seq < S". Per-shard journals are seq-monotone (the seq is drawn
// under the shard lock), which is what makes prefix-truncation at a global
// cut well defined -- the crash-point fuzzer in tests/recovery_test.cc
// enumerates every such S plus mid-record cuts.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace dblrep::hdfs {

/// The ~8 mutation kinds of the metadata plane (plus the cross-shard
/// rename intent protocol, which needs three records because the two
/// shards journal independently).
enum class JournalRecordKind : std::uint16_t {
  kCreate = 1,  // begin_write reserved `path`        (path, code_spec, bs)
  kAllocate,    // stripes placed for an open write   (path, ids, groups)
  kStore,       // bytes landed for an open write     (path, stripe, length)
  kSeal,        // stripe became durable at commit    (stripe)
  kCommit,      // open write published               (path, final length)
  kAbort,       // open write rolled back             (path)
  kDelete,      // published file removed             (path)
  kRename,      // same-shard rename                  (path -> path2)
  kRenameOut,   // cross-shard rename intent, source  (path -> path2, file)
  kRenameIn,    // cross-shard rename, dest applied   (path2, file)
  kRenameAck,   // cross-shard rename, source closed  (path)
  kGcStripes,   // stripes of a remote delete / orphan sweep (ids)
};

const char* to_string(JournalRecordKind kind);

/// Serialized file metadata (rename payloads, snapshots). Mirrors
/// hdfs::FileInfo minus the sealed flag, which the containing section
/// implies (files sealed, pending open).
struct FileState {
  std::string code_spec;
  std::uint64_t block_size = 0;
  std::uint64_t length = 0;
  std::vector<std::uint64_t> stripes;

  bool operator==(const FileState&) const = default;
};

/// One journal record. All fields are encoded for every kind (uniform
/// layout: simpler, and round-trip equality is field-exact); which fields
/// are meaningful depends on `kind` as annotated above. Every field has a
/// default, so a designated initializer names only the fields its kind
/// uses.
struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kCreate;
  std::uint64_t seq = 0;  // global mutation sequence number
  std::string path{};
  std::string path2{};    // rename target
  std::string code_spec{};
  std::uint64_t block_size = 0;
  std::uint64_t length = 0;  // kStore delta / kCommit final length
  std::uint64_t stripe = 0;  // kStore / kSeal subject
  std::vector<std::uint64_t> stripes{};              // kAllocate / kGcStripes
  std::vector<std::vector<std::int32_t>> groups{};   // kAllocate placements
  FileState file{};                                  // kRenameOut / kRenameIn

  bool operator==(const JournalRecord&) const = default;
};

/// One framed record: length + CRC32C header, then the payload.
Buffer encode_record(const JournalRecord& record);

struct ParsedJournal {
  /// The valid prefix, in append order.
  std::vector<JournalRecord> records;
  /// Byte offset of the last valid record boundary (== input size iff the
  /// journal ends cleanly).
  std::size_t clean_bytes = 0;
  std::size_t discarded_bytes = 0;
  /// Empty when the journal parsed to the end; otherwise why the tail was
  /// discarded (torn frame, CRC mismatch, undecodable payload).
  std::string tail_error;

  bool clean() const { return tail_error.empty(); }
};

/// Decodes a journal byte stream, stopping at (and discarding) the first
/// torn or corrupt frame. Never fails: a damaged journal is a shorter one.
ParsedJournal parse_journal(ByteSpan bytes);

/// Everything a snapshot captures for one metadata shard.
struct ShardImage {
  /// Highest global seq folded into this image (0 = none): replay resumes
  /// strictly after it.
  std::uint64_t last_seq = 0;
  /// Global stripe-id watermark at snapshot time (ids below it may exist
  /// on disk even if since aborted -- recovery must never reuse them).
  std::uint64_t next_stripe_id = 0;
  std::vector<std::pair<std::string, FileState>> files;    // sorted by path
  std::vector<std::pair<std::string, FileState>> pending;  // sorted by path
  /// Live catalog stripes of this shard, sorted by id.
  struct Stripe {
    std::uint64_t id = 0;
    std::string code_spec;
    bool sealed = false;
    std::vector<std::int32_t> group;

    bool operator==(const Stripe&) const = default;
  };
  std::vector<Stripe> stripes;

  bool operator==(const ShardImage&) const = default;
};

/// Magic + version + length + CRC framed shard image.
Buffer encode_snapshot(const ShardImage& image);

/// Strict decode: a snapshot is written atomically (it is not a log), so
/// any damage is CORRUPTION, not a shorter snapshot. An empty input is the
/// legitimate "never snapshotted" state and decodes to an empty image.
Result<ShardImage> decode_snapshot(ByteSpan bytes);

/// The in-memory append log of one metadata shard. Not thread-safe: the
/// owning shard's mutex serializes appends with the state changes they
/// describe.
class Journal {
 public:
  /// Appends one framed record and returns its index.
  std::size_t append(const JournalRecord& record);

  ByteSpan bytes() const { return buf_; }
  std::size_t num_records() const { return boundaries_.size(); }
  /// Byte offset after each record (boundaries()[i] ends record i).
  const std::vector<std::size_t>& boundaries() const { return boundaries_; }
  /// Seq of the most recent record (0 when empty).
  std::uint64_t last_seq() const { return last_seq_; }

  /// Truncates after a snapshot has absorbed every record.
  void clear();

  /// Restores the seq watermark on a freshly rebuilt (empty) journal so a
  /// later snapshot records the right last_seq. Recovery only.
  void set_last_seq(std::uint64_t seq) { last_seq_ = seq; }

  /// TEST ONLY: forgets the most recent record -- the "append never made
  /// it to disk" fault the chaos true-positive coverage injects. FAILED_
  /// PRECONDITION when empty.
  Status drop_last_record();

 private:
  Buffer buf_;
  std::vector<std::size_t> boundaries_;
  std::uint64_t last_seq_ = 0;
};

}  // namespace dblrep::hdfs
