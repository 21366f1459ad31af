// Property tests for the NameNode write-ahead journal codec: field-exact
// round trips for every record kind, clean parses at every record
// boundary, and -- the part recovery leans on -- torn, CRC-corrupted, and
// implausibly-framed tails detected and discarded rather than replayed.
// Snapshot (ShardImage) codec coverage rides along: snapshots are written
// atomically, so any damage there is CORRUPTION, not a shorter log.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>

#include "cluster/topology.h"
#include "ec/code.h"
#include "ec/registry.h"
#include "hdfs/journal.h"
#include "hdfs/minidfs.h"
#include "hdfs/namenode.h"

namespace dblrep::hdfs {
namespace {

/// One record per kind with every field populated: the layout is uniform,
/// so round-trip equality over these is the whole codec's field matrix.
std::vector<JournalRecord> sample_records() {
  FileState file;
  file.code_spec = "heptagon-local";
  file.block_size = 4096;
  file.length = 123457;
  file.stripes = {7, 9, 11};

  std::vector<JournalRecord> records;
  std::uint64_t seq = 100;
  for (const auto kind :
       {JournalRecordKind::kCreate, JournalRecordKind::kAllocate,
        JournalRecordKind::kStore, JournalRecordKind::kSeal,
        JournalRecordKind::kCommit, JournalRecordKind::kAbort,
        JournalRecordKind::kDelete, JournalRecordKind::kRename,
        JournalRecordKind::kRenameOut, JournalRecordKind::kRenameIn,
        JournalRecordKind::kRenameAck, JournalRecordKind::kGcStripes}) {
    JournalRecord r;
    r.kind = kind;
    r.seq = ++seq;
    r.path = "/a/with \xc3\xa9 bytes/" + std::string(1, 'x');
    r.path2 = "/b/dest";
    r.code_spec = "pentagon";
    r.block_size = 1 << 20;
    r.length = 0xdeadbeefcafeULL;
    r.stripe = 42;
    r.stripes = {1, 2, 3, 0xffffffffffULL};
    r.groups = {{0, 1, 2}, {3, 4, 5, -1}};
    r.file = file;
    records.push_back(std::move(r));
  }
  return records;
}

Journal journal_of(const std::vector<JournalRecord>& records) {
  Journal journal;
  for (const auto& r : records) journal.append(r);
  return journal;
}

TEST(JournalCodec, EveryKindRoundTripsFieldExact) {
  const auto records = sample_records();
  const Journal journal = journal_of(records);
  EXPECT_EQ(journal.num_records(), records.size());
  EXPECT_EQ(journal.last_seq(), records.back().seq);

  const ParsedJournal parsed = parse_journal(journal.bytes());
  EXPECT_TRUE(parsed.clean()) << parsed.tail_error;
  EXPECT_EQ(parsed.clean_bytes, journal.bytes().size());
  EXPECT_EQ(parsed.discarded_bytes, 0u);
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed.records[i], records[i]) << "record " << i;
  }
}

TEST(JournalCodec, EmptyJournalParsesClean) {
  const ParsedJournal parsed = parse_journal({});
  EXPECT_TRUE(parsed.clean());
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_EQ(parsed.clean_bytes, 0u);
}

TEST(JournalCodec, EveryRecordBoundaryParsesClean) {
  const auto records = sample_records();
  const Journal journal = journal_of(records);
  const ByteSpan bytes = journal.bytes();
  ASSERT_EQ(journal.boundaries().size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t end = journal.boundaries()[i];
    const ParsedJournal parsed =
        parse_journal(ByteSpan(bytes.data(), end));
    EXPECT_TRUE(parsed.clean()) << "boundary " << i << ": "
                                << parsed.tail_error;
    ASSERT_EQ(parsed.records.size(), i + 1);
    EXPECT_EQ(parsed.records[i], records[i]);
  }
}

TEST(JournalCodec, TornTailIsDiscardedAtEveryMidRecordCut) {
  const auto records = sample_records();
  const Journal journal = journal_of(records);
  const ByteSpan bytes = journal.bytes();
  std::size_t start = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t end = journal.boundaries()[i];
    for (std::size_t cut = start + 1; cut < end; ++cut) {
      const ParsedJournal parsed =
          parse_journal(ByteSpan(bytes.data(), cut));
      EXPECT_FALSE(parsed.clean()) << "cut " << cut;
      EXPECT_EQ(parsed.records.size(), i) << "cut " << cut;
      EXPECT_EQ(parsed.clean_bytes, start) << "cut " << cut;
      EXPECT_EQ(parsed.discarded_bytes, cut - start) << "cut " << cut;
    }
    start = end;
  }
}

TEST(JournalCodec, CorruptedTailCrcIsDetectedAndDiscarded) {
  const auto records = sample_records();
  const Journal journal = journal_of(records);
  Buffer bytes(journal.bytes().begin(), journal.bytes().end());
  // Flip one payload byte of the final record (past its 8-byte header).
  const std::size_t last_start = journal.boundaries()[records.size() - 2];
  bytes[last_start + 8] ^= 0x01;

  const ParsedJournal parsed = parse_journal(bytes);
  EXPECT_FALSE(parsed.clean());
  EXPECT_NE(parsed.tail_error.find("CRC"), std::string::npos)
      << parsed.tail_error;
  EXPECT_EQ(parsed.records.size(), records.size() - 1);
  EXPECT_EQ(parsed.clean_bytes, last_start);
}

TEST(JournalCodec, CorruptionMidJournalStopsReplayThere) {
  // Everything after a corrupt record is unordered debris: replay must
  // stop at the first bad frame even though later frames are intact.
  const auto records = sample_records();
  const Journal journal = journal_of(records);
  Buffer bytes(journal.bytes().begin(), journal.bytes().end());
  const std::size_t mid = records.size() / 2;
  const std::size_t mid_start = journal.boundaries()[mid - 1];
  bytes[mid_start + 8] ^= 0xff;

  const ParsedJournal parsed = parse_journal(bytes);
  EXPECT_FALSE(parsed.clean());
  EXPECT_EQ(parsed.records.size(), mid);
  EXPECT_EQ(parsed.clean_bytes, mid_start);
  EXPECT_EQ(parsed.discarded_bytes, bytes.size() - mid_start);
}

TEST(JournalCodec, ImplausibleFrameLengthIsRejected) {
  const auto records = sample_records();
  const Journal journal = journal_of(records);
  Buffer bytes(journal.bytes().begin(), journal.bytes().end());
  // Stamp an absurd length into the final record's frame header: a torn
  // write through the length field must not make the parser try to read
  // gigabytes.
  const std::size_t last_start = journal.boundaries()[records.size() - 2];
  const std::uint32_t absurd = 0x7fffffff;
  std::memcpy(bytes.data() + last_start, &absurd, sizeof(absurd));

  const ParsedJournal parsed = parse_journal(bytes);
  EXPECT_FALSE(parsed.clean());
  EXPECT_NE(parsed.tail_error.find("implausible"), std::string::npos)
      << parsed.tail_error;
  EXPECT_EQ(parsed.records.size(), records.size() - 1);
}

TEST(Journal, DropLastRecordForgetsExactlyOneAppend) {
  const auto records = sample_records();
  Journal journal = journal_of(records);
  ASSERT_TRUE(journal.drop_last_record().is_ok());
  const ParsedJournal parsed = parse_journal(journal.bytes());
  EXPECT_TRUE(parsed.clean());
  ASSERT_EQ(parsed.records.size(), records.size() - 1);
  EXPECT_EQ(parsed.records.back(), records[records.size() - 2]);

  Journal empty;
  EXPECT_FALSE(empty.drop_last_record().is_ok());
}

TEST(Journal, ClearKeepsSeqWatermark) {
  const auto records = sample_records();
  Journal journal = journal_of(records);
  const std::uint64_t seq = journal.last_seq();
  journal.clear();
  EXPECT_EQ(journal.num_records(), 0u);
  EXPECT_EQ(journal.bytes().size(), 0u);
  // A snapshot taken after clear() must still record how far history got.
  EXPECT_EQ(journal.last_seq(), seq);
}

// ------------------------------------------------------------- snapshots

ShardImage sample_image() {
  ShardImage image;
  image.last_seq = 777;
  image.next_stripe_id = 1234;
  FileState published;
  published.code_spec = "raidm-9";
  published.block_size = 512;
  published.length = 9999;
  published.stripes = {5, 6};
  FileState open;
  open.code_spec = "3-rep";
  open.block_size = 64;
  image.files = {{"/a", published}, {"/b", published}};
  image.pending = {{"/tmp/open", open}};
  ShardImage::Stripe stripe;
  stripe.id = 5;
  stripe.code_spec = "raidm-9";
  stripe.sealed = true;
  stripe.group = {0, 3, 7, 9, 12, 14, 15, 18, 20};
  image.stripes = {stripe};
  return image;
}

TEST(SnapshotCodec, RoundTripsFieldExact) {
  const ShardImage image = sample_image();
  const Buffer bytes = encode_snapshot(image);
  const auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, image);
}

TEST(SnapshotCodec, EmptyInputIsTheNeverSnapshottedState) {
  const auto decoded = decode_snapshot({});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, ShardImage{});
}

TEST(SnapshotCodec, AnyDamageIsCorruption) {
  const ShardImage image = sample_image();
  const Buffer bytes = encode_snapshot(image);

  // Unlike the journal, a snapshot is written atomically: truncation and
  // bit flips alike must surface as CORRUPTION, never as a shorter image.
  Buffer truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_EQ(decode_snapshot(truncated).status().code(),
            StatusCode::kCorruption);

  for (const std::size_t at : {std::size_t{1}, bytes.size() / 2,
                               bytes.size() - 1}) {
    Buffer flipped = bytes;
    flipped[at] ^= 0x40;
    EXPECT_EQ(decode_snapshot(flipped).status().code(),
              StatusCode::kCorruption)
        << "flip at " << at;
  }
}

// ------------------------------------------------------ pinned encodings
//
// A frame and a snapshot as the byte-at-a-time table CRC wrote them,
// before crc32c gained a hardware path. Journals and snapshots outlive the
// code that wrote them, so both must still decode field-exact, and the
// codec must still write the same bytes.

JournalRecord pinned_record() {
  JournalRecord r;
  r.kind = JournalRecordKind::kAllocate;
  r.seq = 4242;
  r.path = "/logs/part-00017";
  r.code_spec = "pentagon";
  r.block_size = 65536;
  r.stripes = {17, 18};
  r.groups = {{0, 3, 6, 9, 12}, {1, 4, 7, 10, 13}};
  return r;
}

constexpr std::uint8_t kPinnedFrame[] = {
    0xa6, 0x00, 0x00, 0x00, 0x20, 0x23, 0xad, 0x88, 0x02, 0x00, 0x92, 0x10,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x2f, 0x6c,
    0x6f, 0x67, 0x73, 0x2f, 0x70, 0x61, 0x72, 0x74, 0x2d, 0x30, 0x30, 0x30,
    0x31, 0x37, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x70, 0x65,
    0x6e, 0x74, 0x61, 0x67, 0x6f, 0x6e, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x11, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x09, 0x00,
    0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x0a, 0x00,
    0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

ShardImage pinned_image() {
  ShardImage image;
  image.last_seq = 777;
  image.next_stripe_id = 1234;
  FileState published;
  published.code_spec = "raidm-9";
  published.block_size = 512;
  published.length = 9999;
  published.stripes = {5, 6};
  image.files = {{"/a", published}};
  ShardImage::Stripe stripe;
  stripe.id = 5;
  stripe.code_spec = "raidm-9";
  stripe.sealed = true;
  stripe.group = {0, 3, 7, 9, 12, 14, 15, 18, 20};
  image.stripes = {stripe};
  return image;
}

constexpr std::uint8_t kPinnedSnapshot[] = {
    0x44, 0x52, 0x53, 0x4e, 0x01, 0x00, 0x00, 0x00, 0x99, 0x00, 0x00, 0x00,
    0x0f, 0x14, 0xa3, 0xab, 0x09, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x2f, 0x61, 0x07, 0x00,
    0x00, 0x00, 0x72, 0x61, 0x69, 0x64, 0x6d, 0x2d, 0x39, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0x27, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
    0x00, 0x72, 0x61, 0x69, 0x64, 0x6d, 0x2d, 0x39, 0x01, 0x09, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
    0x00, 0x09, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00,
    0x00, 0x0f, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00,
    0x00};

TEST(JournalCodec, PinnedTableCrcFrameDecodesFieldExact) {
  const ParsedJournal parsed = parse_journal(kPinnedFrame);
  ASSERT_TRUE(parsed.clean()) << parsed.tail_error;
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0], pinned_record());
  EXPECT_EQ(encode_record(pinned_record()),
            Buffer(std::begin(kPinnedFrame), std::end(kPinnedFrame)));
}

TEST(SnapshotCodec, PinnedTableCrcSnapshotDecodesFieldExact) {
  const auto decoded = decode_snapshot(kPinnedSnapshot);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, pinned_image());
  EXPECT_EQ(encode_snapshot(pinned_image()),
            Buffer(std::begin(kPinnedSnapshot), std::end(kPinnedSnapshot)));
}

// ------------------------------------------------ the live path's journal
//
// What the live mutations journal, pinned byte for byte. A scripted MiniDfs
// lifecycle covers every record kind: writes over every paper code, a
// streamed, an aborted and an open write, same- and cross-shard renames,
// deletes of renamed files, three replaces, a snapshot, and crashes --
// one clean, two mid-rename and one mid-GC. After each step the journal
// and snapshot bytes of every shard, the journal record count and the
// catalog fingerprint must equal the values the NameNode wrote when they
// were captured. Replay runs the same code as the live mutations, so
// recovery_test's oracle (which runs them too) cannot catch a change in
// what a mutation does; this pin can.

constexpr std::size_t kLifecycleBlock = 256;

struct LifecycleConfig {
  std::size_t shards;
  std::size_t snapshot_every;
};
constexpr LifecycleConfig kLifecycleConfigs[] = {{1, 0},  {1, 7},  {4, 0},
                                                 {4, 7},  {16, 0}, {16, 7}};
constexpr std::size_t kNumLifecycleConfigs = std::size(kLifecycleConfigs);

struct LifecyclePin {
  /// Shard-count invariant, so one per step.
  std::uint64_t fingerprint;
  /// Per kLifecycleConfigs entry: total_journal_records(), and an FNV-1a
  /// over every shard's journal bytes then snapshot bytes.
  std::array<std::size_t, kNumLifecycleConfigs> records;
  std::array<std::uint64_t, kNumLifecycleConfigs> artifacts;
};

// clang-format off
constexpr LifecyclePin kLifecyclePins[] = {
    {0x4c1020a05f8026d0ULL,
     {36, 0, 36, 15, 36, 36},
     {0xa93ea0361589867fULL,
      0xaf62e14e66728ecfULL,
      0x5d438795f2f899e5ULL,
      0xcad0dd923dc55c4aULL,
      0xffd17b2becdfa201ULL,
      0xffd17b2becdfa201ULL}},
    {0x61f84f1cc440e94dULL,
     {74, 3, 74, 7, 74, 60},
     {0x8cd48811a4533805ULL,
      0xe5eda654ec5a48c7ULL,
      0x2cad80bb75de8e11ULL,
      0x610010a53be94fbbULL,
      0x86633d6e692bc587ULL,
      0xb02a776163488afcULL}},
    {0x91b02dcd4cbc1eecULL,
     {82, 4, 82, 7, 82, 61},
     {0x888403dde6689d92ULL,
      0xb487b3ccd1b580ddULL,
      0x39ea20bd2e737518ULL,
      0xe220c65c9184f11cULL,
      0x85cf896ad28a8fa0ULL,
      0x8ab08d04b10a8198ULL}},
    {0x91b02dcd4cbc1eecULL,
     {86, 1, 86, 11, 86, 58},
     {0xdd1c343c1874657bULL,
      0xcae1d3ee4e3adbd4ULL,
      0xd4c3be3c99654ea7ULL,
      0x7e3cfdb89bd9ba03ULL,
      0x7908657a48d271bbULL,
      0x55950c946b3f6e99ULL}},
    {0x39adfed6de60e37aULL,
     {87, 2, 87, 12, 87, 59},
     {0x52f8e14891e4305fULL,
      0x894893e951a6aba2ULL,
      0x1b2516595f60a437ULL,
      0x62182386c33be473ULL,
      0xf8fe9e1a869a7e3fULL,
      0xca722592bb8e1c8dULL}},
    {0x6ba5d10e518e30ffULL,
     {88, 3, 90, 8, 90, 54},
     {0xebe6427a80d1c7bfULL,
      0x4f5a50bb9880e15eULL,
      0x2c480cb5ed81020ULL,
      0xbb64d48a60bc3636ULL,
      0xf4d5e049ff023512ULL,
      0xeb812bea7d0cad1aULL}},
    {0x4fbdcae19518655eULL,
     {89, 4, 91, 9, 91, 48},
     {0x1b760517151d4d2dULL,
      0xc7d7ac4da3c8aa26ULL,
      0x7d08dccfcfcd6bf5ULL,
      0x3ae09b0eab4122d9ULL,
      0x676dc532391e7825ULL,
      0x90874a0c71da0cf3ULL}},
    {0xae67996a59b7204cULL,
     {90, 5, 93, 11, 93, 50},
     {0x67377c6fcfe47179ULL,
      0x848775d82f8fd26ULL,
      0x496696252624adb6ULL,
      0xb9247023baed3724ULL,
      0x2960a4e79e5c5516ULL,
      0x94d5dd65bd3b6de4ULL}},
    {0x1e9174ea6e362c36ULL,
     {91, 6, 94, 12, 94, 44},
     {0xeaf847db258929c3ULL,
      0x3646911245ef6bb0ULL,
      0xbab7708d9b2de2b1ULL,
      0x6b812b04fea30db7ULL,
      0xa60168648dee09a1ULL,
      0x4a2593e35cb62252ULL}},
    {0x51647e16190bd5eULL,
     {98, 6, 101, 12, 101, 44},
     {0xf457f4ef80c47082ULL,
      0xd115d4f3f5815695ULL,
      0x53d2301c75a4f67dULL,
      0x15a299b668cf7fceULL,
      0x2a8c471ea99378d7ULL,
      0x4dc1e6555159337dULL}},
    {0x77c0dbc2cf2c325dULL,
     {99, 0, 104, 15, 104, 40},
     {0xd82d758aed35669fULL,
      0x5b30aebbbed20e8aULL,
      0x12c824a8afa6ac0fULL,
      0x7f4e09e7f096f53aULL,
      0xb2d963b12fb8c7fULL,
      0xcd23b6810f9a59e9ULL}},
    {0x91caf5c9a0763d00ULL,
     {106, 0, 114, 18, 114, 42},
     {0x749fdb7034c11ac0ULL,
      0xeac8f23f5518e16ULL,
      0x953b2e62eb67bc95ULL,
      0xfb23060fd4e180f2ULL,
      0xe7155ba5a566a857ULL,
      0x4967a3a3ad8127f9ULL}},
    {0xc4bae2127244b423ULL,
     {107, 1, 117, 13, 117, 38},
     {0x8af16513cfa80ecfULL,
      0x279c3395e0c4cedbULL,
      0x885d5185489eb4aULL,
      0xf8742d6c7c9d2032ULL,
      0xd794e96a4820a5c6ULL,
      0x3fde4251b15170f1ULL}},
    {0xe80bd2c908f564e6ULL,
     {114, 0, 127, 16, 127, 33},
     {0x5fc1a8454b0448caULL,
      0xb95ffbcf36ecc1c7ULL,
      0x67cd24fc1a602664ULL,
      0x6d4c6695aa45c8e5ULL,
      0x8127133cace76f36ULL,
      0x2d9de242dfac3de5ULL}},
    {0x14d7de6cef5c0559ULL,
     {117, 3, 130, 12, 130, 36},
     {0xa799ac1182b2c8c3ULL,
      0xf7d56f002a0d0398ULL,
      0x3d0061743ea602f6ULL,
      0x7890c195b2613f73ULL,
      0xfe067d88b134fc2cULL,
      0x50c03a43555c7ac3ULL}},
    {0x14d7de6cef5c0559ULL,
     {0, 0, 0, 0, 0, 0},
     {0xf9a7b21cf8f2582fULL,
      0xf9a7b21cf8f2582fULL,
      0x6d3d4132d591ad37ULL,
      0x6d3d4132d591ad37ULL,
      0x81d09e77fbaffbceULL,
      0x81d09e77fbaffbceULL}},
    {0xe80bd2c908f564e6ULL,
     {1, 1, 1, 1, 1, 1},
     {0xf9f03c14256c9f67ULL,
      0xf9f03c14256c9f67ULL,
      0x91415d435acb557aULL,
      0x91415d435acb557aULL,
      0x5e5620dc30fefb67ULL,
      0x5e5620dc30fefb67ULL}},
    {0xae46a0eecca0442aULL,
     {2, 2, 4, 4, 4, 4},
     {0x102fe20039c9efd7ULL,
      0x102fe20039c9efd7ULL,
      0xb29b1b06188b9e4dULL,
      0xb29b1b06188b9e4dULL,
      0xf11ec74e328b23c2ULL,
      0xf11ec74e328b23c2ULL}},
    {0x56b2cdd1e8dc9431ULL,
     {3, 3, 7, 7, 7, 7},
     {0xa316da5056d54be6ULL,
      0xa316da5056d54be6ULL,
      0xfde0369af9bce692ULL,
      0xfde0369af9bce692ULL,
      0xf434209ba3312fd9ULL,
      0xf434209ba3312fd9ULL}},
    {0x3c2aa45aeb98473fULL,
     {4, 4, 9, 9, 9, 9},
     {0x69546644127c1832ULL,
      0x69546644127c1832ULL,
      0xc780ae32a4550d1aULL,
      0xc780ae32a4550d1aULL,
      0x348d815743de570bULL,
      0x348d815743de570bULL}},
    {0x60bba309738261b4ULL,
     {9, 2, 14, 14, 14, 14},
     {0x665cc899e3fab8a3ULL,
      0x1f1a82db29573c21ULL,
      0x646af8d2c9c11b31ULL,
      0x646af8d2c9c11b31ULL,
      0x842903a8e586e07cULL,
      0x842903a8e586e07cULL}},
};
// clang-format on

std::uint64_t fnv1a(std::uint64_t h, ByteSpan bytes) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t artifact_hash(const NameNode& nn) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t s = 0; s < nn.num_shards(); ++s) {
    h = fnv1a(h, nn.journal_bytes(s));
    h = fnv1a(h, nn.snapshot_bytes(s));
  }
  return h;
}

/// Loses `shard`'s last journal append -- the crash point just before it
/// -- if that append is a `kind` record. An auto-snapshot may already have
/// absorbed it, and then nothing is lost.
bool lose_last_append(MiniDfs& dfs, std::size_t shard,
                      JournalRecordKind kind) {
  NameNode& nn = dfs.namenode();
  const ParsedJournal parsed = parse_journal(nn.journal_bytes(shard));
  if (parsed.records.empty() || parsed.records.back().kind != kind) {
    return false;
  }
  return nn.testonly_drop_last_journal_record(shard).is_ok();
}

void write(MiniDfs& dfs, const std::string& path, const std::string& spec,
           std::size_t blocks, std::uint64_t seed) {
  ASSERT_TRUE(dfs.write_file(path, random_buffer(kLifecycleBlock * blocks,
                                                 seed),
                             spec, kLifecycleBlock)
                  .is_ok())
      << path;
}

/// Opens a pentagon write and stores `rounds` stripes, one allocation each.
void stream(MiniDfs& dfs, const std::string& path, std::size_t rounds) {
  const std::size_t k = ec::make_code("pentagon").value()->data_blocks();
  ASSERT_TRUE(dfs.begin_write(path, "pentagon", kLifecycleBlock).is_ok());
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto stripes = dfs.allocate_stripes(path, 1);
    ASSERT_TRUE(stripes.is_ok()) << stripes.status().to_string();
    ASSERT_TRUE(dfs.store_stripes(path, *stripes,
                                  random_buffer(k * kLifecycleBlock, 50 + r))
                    .is_ok());
  }
}

using LifecycleStep = std::pair<const char*, std::function<void(MiniDfs&)>>;

std::vector<LifecycleStep> lifecycle_steps() {
  const auto specs = ec::paper_code_specs();
  const auto writes = [specs](std::size_t lo) {
    return [specs, lo](MiniDfs& dfs) {
      for (std::size_t i = lo; i < lo + specs.size(); ++i) {
        write(dfs, "/lc/f" + std::to_string(i), specs[i % specs.size()],
              1 + i % 3, i);
      }
    };
  };
  const auto rename = [](const char* from, const char* to) {
    return [from, to](MiniDfs& dfs) {
      ASSERT_TRUE(dfs.rename(from, to).is_ok()) << from;
    };
  };
  const auto remove = [](const char* path) {
    return [path](MiniDfs& dfs) {
      ASSERT_TRUE(dfs.delete_file(path).is_ok()) << path;
    };
  };
  const auto replace = [](const char* from, const char* to) {
    return [from, to](MiniDfs& dfs) {
      write(dfs, from, "heptagon", 3, 70);
      ASSERT_TRUE(dfs.replace_file(from, to).is_ok()) << to;
    };
  };
  const auto crash = [](MiniDfs& dfs) {
    ASSERT_TRUE(dfs.crash_namenode().is_ok());
  };
  return {
      {"writes f0-f6", writes(0)},
      {"writes f7-f13", writes(specs.size())},
      {"streamed write",
       [](MiniDfs& dfs) {
         stream(dfs, "/lc/stream", 2);
         ASSERT_TRUE(dfs.commit_write("/lc/stream").is_ok());
       }},
      {"aborted write",
       [](MiniDfs& dfs) {
         stream(dfs, "/lc/aborted", 1);
         ASSERT_TRUE(dfs.abort_write("/lc/aborted").is_ok());
       }},
      {"same-shard rename", rename("/lc/f0", "/lc/r35")},
      {"cross-shard rename", rename("/lc/f1", "/lc/r0")},
      {"delete same-shard renamed", remove("/lc/r35")},
      {"delete cross-shard renamed", remove("/lc/r0")},
      {"delete", remove("/lc/f2")},
      {"same-shard replace", replace("/lc/t16", "/lc/f3")},
      {"rename for replace 2", rename("/lc/f4", "/lc/m0")},
      {"replace, from owns to's stripes", replace("/lc/u14", "/lc/m0")},
      {"rename for replace 3", rename("/lc/f5", "/lc/n2")},
      {"replace, a third shard owns to's stripes",
       replace("/lc/v0", "/lc/n2")},
      {"open write", [](MiniDfs& dfs) { stream(dfs, "/lc/open", 1); }},
      {"snapshot", [](MiniDfs& dfs) { dfs.snapshot_namenode(); }},
      {"crash rolls back the open write", crash},
      {"crash loses a rename's in and ack",
       [crash](MiniDfs& dfs) {
         ASSERT_TRUE(dfs.rename("/lc/f6", "/lc/p1").is_ok());
         const NameNode& nn = dfs.namenode();
         if (lose_last_append(dfs, nn.shard_of("/lc/f6"),
                              JournalRecordKind::kRenameAck)) {
           lose_last_append(dfs, nn.shard_of("/lc/p1"),
                            JournalRecordKind::kRenameIn);
         }
         crash(dfs);
       }},
      {"crash loses a rename's ack",
       [crash](MiniDfs& dfs) {
         ASSERT_TRUE(dfs.rename("/lc/f7", "/lc/q0").is_ok());
         lose_last_append(dfs, dfs.namenode().shard_of("/lc/f7"),
                          JournalRecordKind::kRenameAck);
         crash(dfs);
       }},
      {"crash loses a delete's foreign gc",
       [crash](MiniDfs& dfs) {
         ASSERT_TRUE(dfs.delete_file("/lc/p1").is_ok());
         lose_last_append(dfs, dfs.namenode().shard_of("/lc/f6"),
                          JournalRecordKind::kGcStripes);
         crash(dfs);
       }},
      {"write after recovery",
       [](MiniDfs& dfs) { write(dfs, "/lc/after", "raidm-9", 4, 99); }},
  };
}

TEST(NameNodeJournal, ScriptedLifecycleMatchesTheParent) {
  cluster::Topology topology;
  topology.num_nodes = 25;  // raidm-11 spans 24
  topology.num_racks = 5;
  const auto steps = lifecycle_steps();

  // observed[step][config], printed as a pin table on any mismatch.
  struct Sample {
    std::uint64_t fingerprint = 0;
    std::size_t records = 0;
    std::uint64_t artifacts = 0;
  };
  std::vector<std::array<Sample, kNumLifecycleConfigs>> observed(steps.size());
  for (std::size_t c = 0; c < kNumLifecycleConfigs; ++c) {
    MiniDfsOptions options;
    options.meta_shards = kLifecycleConfigs[c].shards;
    options.meta_snapshot_every = kLifecycleConfigs[c].snapshot_every;
    MiniDfs dfs(topology, /*seed=*/24, /*pool=*/nullptr, options);
    const NameNode& nn = dfs.namenode();
    if (nn.num_shards() > 1) {
      // The paths were picked for these relations at 4 and 16 shards.
      for (const auto& [a, b] : {std::pair{"/lc/f0", "/lc/r35"},
                                 {"/lc/t16", "/lc/f3"},
                                 {"/lc/u14", "/lc/f4"}}) {
        EXPECT_EQ(nn.shard_of(a), nn.shard_of(b)) << a << " " << b;
      }
      for (const auto& [a, b] :
           {std::pair{"/lc/f1", "/lc/r0"}, {"/lc/f4", "/lc/m0"},
            {"/lc/f5", "/lc/n2"}, {"/lc/v0", "/lc/n2"}, {"/lc/v0", "/lc/f5"},
            {"/lc/f6", "/lc/p1"}, {"/lc/f7", "/lc/q0"}}) {
        EXPECT_NE(nn.shard_of(a), nn.shard_of(b)) << a << " " << b;
      }
    }
    for (std::size_t s = 0; s < steps.size(); ++s) {
      steps[s].second(dfs);
      ASSERT_FALSE(::testing::Test::HasFatalFailure())
          << steps[s].first << " at config " << c;
      observed[s][c] = {dfs.catalog_fingerprint(), nn.total_journal_records(),
                        artifact_hash(nn)};
    }
  }

  std::ostringstream table;
  table << std::hex;
  for (const auto& row : observed) {
    table << "    {0x" << row[0].fingerprint << "ULL,\n     {" << std::dec;
    for (std::size_t c = 0; c < kNumLifecycleConfigs; ++c) {
      table << (c ? ", " : "") << row[c].records;
    }
    table << "},\n     {" << std::hex;
    for (std::size_t c = 0; c < kNumLifecycleConfigs; ++c) {
      table << (c ? ",\n      " : "") << "0x" << row[c].artifacts << "ULL";
    }
    table << "}},\n";
  }
  ASSERT_EQ(std::size(kLifecyclePins), steps.size())
      << "observed pins:\n" << table.str();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const LifecyclePin& pin = kLifecyclePins[s];
    for (std::size_t c = 0; c < kNumLifecycleConfigs; ++c) {
      const Sample& got = observed[s][c];
      const std::string where = std::string("after \"") + steps[s].first +
                                "\" at " +
                                std::to_string(kLifecycleConfigs[c].shards) +
                                " shards, snapshot every " +
                                std::to_string(
                                    kLifecycleConfigs[c].snapshot_every);
      EXPECT_EQ(got.fingerprint, pin.fingerprint) << where;
      EXPECT_EQ(got.records, pin.records[c]) << where;
      EXPECT_EQ(got.artifacts, pin.artifacts[c]) << where;
    }
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "observed pins:\n" << table.str();
  }
}

}  // namespace
}  // namespace dblrep::hdfs
