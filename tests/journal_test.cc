// Property tests for the NameNode write-ahead journal codec: field-exact
// round trips for every record kind, clean parses at every record
// boundary, and -- the part recovery leans on -- torn, CRC-corrupted, and
// implausibly-framed tails detected and discarded rather than replayed.
// Snapshot (ShardImage) codec coverage rides along: snapshots are written
// atomically, so any damage there is CORRUPTION, not a shorter log.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "hdfs/journal.h"

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

}  // namespace
}  // namespace dblrep::hdfs
