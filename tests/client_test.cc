// Tests for the handle-based client API: streaming FileWriter ingest vs
// bulk writes, byte-range preads (boundary crossings, EOF clamping,
// degraded ranges under failures for every registered scheme, the
// partition property against read_file), async-vs-sync equivalence of
// bytes and traffic totals, and the open/sealed stat surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "ec/stripe_codec.h"
#include "exec/thread_pool.h"
#include "hdfs/client.h"
#include "hdfs/minidfs.h"
#include "hdfs/workload_driver.h"

namespace dblrep::hdfs {
namespace {

constexpr std::size_t kBlockSize = 64;

MiniDfs make_dfs(std::size_t nodes = 25, std::uint64_t seed = 7,
                 exec::ThreadPool* pool = nullptr) {
  cluster::Topology topology;
  topology.num_nodes = nodes;
  return MiniDfs(topology, seed, pool);
}

Buffer payload(std::size_t size, std::uint64_t seed = 1) {
  return random_buffer(size, seed);
}

std::size_t data_blocks(const std::string& spec) {
  return ec::make_code(spec).value()->data_blocks();
}

int fault_tolerance(const std::string& spec) {
  return ec::make_code(spec).value()->params().fault_tolerance;
}

/// Fails `count` nodes out of the first stripe's placement group, so the
/// failures are guaranteed to hit this file's data.
void fail_group_nodes(MiniDfs& dfs, const std::string& path,
                      std::size_t count) {
  const auto info = dfs.stat(path);
  ASSERT_TRUE(info.is_ok());
  const auto group = dfs.catalog().stripe(info->stripes.front()).group;
  ASSERT_LE(count, group.size());
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(dfs.fail_node(group[i]).is_ok());
  }
}

class ClientSchemeTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(PaperCodes, ClientSchemeTest,
                         ::testing::Values("2-rep", "3-rep", "pentagon",
                                           "heptagon", "heptagon-local",
                                           "raidm-9", "rs-10-4"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------------- FileWriter

TEST_P(ClientSchemeTest, StreamingWriterMatchesBulkWrite) {
  const std::string spec = GetParam();
  const std::size_t stripe_bytes = data_blocks(spec) * kBlockSize;
  // 2 full stripes plus a 1.5-block tail: padding and tail-stripe paths.
  const Buffer data = payload(2 * stripe_bytes + kBlockSize + kBlockSize / 2);

  MiniDfs bulk = make_dfs();
  ASSERT_TRUE(bulk.write_file("/f", data, spec, kBlockSize).is_ok());

  MiniDfs streamed = make_dfs();  // same seed: same placement draws
  Client client(streamed, {.max_inflight_stripes = 2});
  auto writer = client.create("/f", spec, kBlockSize);
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
  // Odd-sized chunks that never line up with block or stripe boundaries.
  Rng rng(11);
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t len = std::min<std::size_t>(
        1 + rng.next_below(stripe_bytes + 3), data.size() - offset);
    ASSERT_TRUE(writer->append(ByteSpan(data).subspan(offset, len)).is_ok());
    offset += len;
  }
  EXPECT_EQ(writer->bytes_appended(), data.size());
  ASSERT_TRUE(writer->close().is_ok());
  EXPECT_FALSE(writer->is_open());

  // Same bytes back, same logical metadata, same stored bytes, and --
  // because the placement draws are identical -- same traffic totals.
  const auto bulk_read = bulk.read_file("/f");
  const auto streamed_read = streamed.read_file("/f");
  ASSERT_TRUE(bulk_read.is_ok());
  ASSERT_TRUE(streamed_read.is_ok());
  EXPECT_EQ(*bulk_read, data);
  EXPECT_EQ(*streamed_read, data);
  EXPECT_EQ(streamed.stat("/f")->length, bulk.stat("/f")->length);
  EXPECT_EQ(streamed.stat("/f")->stripes.size(),
            bulk.stat("/f")->stripes.size());
  EXPECT_EQ(streamed.stored_bytes(), bulk.stored_bytes());
  EXPECT_EQ(streamed.traffic().total_bytes(), bulk.traffic().total_bytes());
  EXPECT_EQ(streamed.traffic().client_bytes(), bulk.traffic().client_bytes());
}

TEST(FileWriter, PipelinesManyStripesThroughBoundedWindow) {
  // A worker pool plus a 2-stripe in-flight cap: ingest far more stripes
  // than the window holds; every byte must still land exactly once.
  exec::ThreadPool pool(4);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  Client client(dfs, {.max_inflight_stripes = 2});
  const std::size_t stripe_bytes = data_blocks("rs-10-4") * kBlockSize;
  const Buffer data = payload(32 * stripe_bytes + 5);
  auto writer = client.create("/big", "rs-10-4", kBlockSize);
  ASSERT_TRUE(writer.is_ok());
  for (std::size_t offset = 0; offset < data.size(); offset += kBlockSize) {
    const std::size_t len = std::min(kBlockSize, data.size() - offset);
    ASSERT_TRUE(writer->append(ByteSpan(data).subspan(offset, len)).is_ok());
  }
  ASSERT_TRUE(writer->close().is_ok());
  const auto read = dfs.read_file("/big");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(dfs.stat("/big")->stripes.size(), 33u);  // 32 full + tail
}

TEST(FileWriter, StripeAlignedAppendsAreZeroCopy) {
  // Stripe-aligned spans must flow straight from the caller's memory into
  // the encoder: zero bytes staged through the sub-stripe buffer. The
  // WriterStats probe counts every byte down each path.
  exec::ThreadPool pool(4);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  Client client(dfs, {.max_inflight_stripes = 4});
  const std::size_t stripe_bytes = data_blocks("rs-10-4") * kBlockSize;
  const Buffer data = payload(8 * stripe_bytes);
  auto writer = client.create("/aligned", "rs-10-4", kBlockSize);
  ASSERT_TRUE(writer.is_ok());

  // One single-stripe span, then one span covering several stripes; a
  // scratch copy is scribbled over after each append to prove the writer
  // no longer aliases the caller's span once append returns.
  Buffer scratch(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(
                                                  stripe_bytes));
  ASSERT_TRUE(writer->append(scratch).is_ok());
  std::fill(scratch.begin(), scratch.end(), std::uint8_t{0xAA});
  ASSERT_TRUE(
      writer->append(ByteSpan(data).subspan(stripe_bytes)).is_ok());

  EXPECT_EQ(writer->stats().buffered_bytes, 0u);
  EXPECT_EQ(writer->stats().zero_copy_bytes, data.size());
  ASSERT_TRUE(writer->close().is_ok());

  // Byte-identity with the bulk path is unchanged by the zero-copy route
  // (write traffic compared before the read below adds its own).
  MiniDfs bulk = make_dfs(25, 7);
  ASSERT_TRUE(bulk.write_file("/aligned", data, "rs-10-4", kBlockSize)
                  .is_ok());
  EXPECT_EQ(dfs.stored_bytes(), bulk.stored_bytes());
  EXPECT_EQ(dfs.traffic().client_bytes(), bulk.traffic().client_bytes());

  const auto read = dfs.read_file("/aligned");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

TEST(FileWriter, RaggedAppendsAccountToBufferedBytes) {
  // Unaligned ingest exercises the other half of the accounting: the head
  // that tops up the buffer and the sub-stripe tail are copied; the
  // stripe-aligned middle of a large span still goes zero-copy.
  MiniDfs dfs = make_dfs();
  Client client(dfs, {.max_inflight_stripes = 2});
  const std::size_t stripe_bytes = data_blocks("pentagon") * kBlockSize;
  const Buffer data = payload(2 * stripe_bytes + stripe_bytes / 2);
  auto writer = client.create("/ragged", "pentagon", kBlockSize);
  ASSERT_TRUE(writer.is_ok());

  const std::size_t head = kBlockSize / 2;
  ASSERT_TRUE(writer->append(ByteSpan(data).first(head)).is_ok());
  // Tops the buffer up to one full stripe (copied), then 1.5 stripes:
  // one full stripe zero-copy, half a stripe buffered as the tail.
  ASSERT_TRUE(writer->append(ByteSpan(data).subspan(head)).is_ok());

  EXPECT_EQ(writer->stats().zero_copy_bytes, stripe_bytes);
  EXPECT_EQ(writer->stats().buffered_bytes, data.size() - stripe_bytes);
  ASSERT_TRUE(writer->close().is_ok());
  const auto read = dfs.read_file("/ragged");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

TEST(FileWriter, ZeroCopyRunsKeepTheWriteClass) {
  // One span of several fused store_stripes runs (2 x batch_stripes() + 1
  // full stripes, fanned out across the pool) plus a ragged tail stored
  // from the writer's buffer at close: every upload is charged to the
  // handle's write class, none to the default client-write class.
  exec::ThreadPool pool(2);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  Client client(dfs, {.read_class = net::TransferClass::kRetier,
                      .write_class = net::TransferClass::kRetier});
  const auto code = ec::make_code("rs-10-4").value();
  const std::size_t stripe_bytes = code->data_blocks() * kBlockSize;
  const std::size_t full =
      2 * ec::StripeCodec(*code).batch_stripes(kBlockSize) + 1;
  const Buffer data = payload(full * stripe_bytes + kBlockSize / 2);
  const double retier0 = dfs.traffic().class_bytes(net::TransferClass::kRetier);
  const double write0 =
      dfs.traffic().class_bytes(net::TransferClass::kClientWrite);

  auto writer = client.create("/retier", "rs-10-4", kBlockSize);
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer->append(data).is_ok());
  EXPECT_EQ(writer->stats().zero_copy_bytes, full * stripe_bytes);
  ASSERT_TRUE(writer->close().is_ok());

  const double uploaded = static_cast<double>(
      (full + 1) * code->layout().num_slots() * kBlockSize);
  EXPECT_EQ(dfs.traffic().class_bytes(net::TransferClass::kRetier) - retier0,
            uploaded);
  EXPECT_EQ(
      dfs.traffic().class_bytes(net::TransferClass::kClientWrite) - write0,
      0.0);
  EXPECT_EQ(dfs.stat("/retier")->stripes.size(), full + 1);
  const auto read = dfs.read_file("/retier");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

TEST(Client, WriteAndWriteAsyncKeepTheWriteClass) {
  // The bulk write and its async form charge every upload to the handle's
  // write class, as a FileWriter does, and none to the default
  // client-write class.
  exec::ThreadPool pool(2);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  Client client(dfs, {.write_class = net::TransferClass::kRetier});
  const auto code = ec::make_code("rs-10-4").value();
  constexpr std::size_t kStripes = 3;
  const Buffer data = payload(kStripes * code->data_blocks() * kBlockSize);
  const double retier0 = dfs.traffic().class_bytes(net::TransferClass::kRetier);
  const double write0 =
      dfs.traffic().class_bytes(net::TransferClass::kClientWrite);

  ASSERT_TRUE(client.write("/bulk", data, "rs-10-4", kBlockSize).is_ok());
  ASSERT_TRUE(
      client.write_async("/async", data, "rs-10-4", kBlockSize).get().is_ok());

  const double uploaded = static_cast<double>(
      2 * kStripes * code->layout().num_slots() * kBlockSize);
  EXPECT_EQ(dfs.traffic().class_bytes(net::TransferClass::kRetier) - retier0,
            uploaded);
  EXPECT_EQ(
      dfs.traffic().class_bytes(net::TransferClass::kClientWrite) - write0,
      0.0);
  EXPECT_EQ(*dfs.read_file("/bulk"), data);
  EXPECT_EQ(*dfs.read_file("/async"), data);
}

TEST(FileWriter, OneAppendJournalsOneAllocateAndOneStore) {
  // The stripe-aligned middle of a span is allocated by one
  // allocate_stripes call and stored by one store_stripes call: two
  // journal records however many stripes the span covers.
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  const std::size_t stripe_bytes = data_blocks("pentagon") * kBlockSize;
  auto writer = client.create("/journaled", "pentagon", kBlockSize);
  ASSERT_TRUE(writer.is_ok());
  const std::size_t records0 = dfs.namenode().total_journal_records();
  ASSERT_TRUE(writer->append(payload(3 * stripe_bytes)).is_ok());
  EXPECT_EQ(dfs.namenode().total_journal_records() - records0, 2u);
  ASSERT_TRUE(writer->close().is_ok());
}

TEST(FileWriter, FailedAppendPoisonsTheWriterAndCloseRollsBack) {
  // Too few live nodes to place a stripe: the zero-copy middle of the
  // span fails to allocate, the error poisons the writer, and close rolls
  // the whole file back -- the stripe stored before the failure included.
  exec::ThreadPool pool(2);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  Client client(dfs);
  const std::size_t stripe_bytes = data_blocks("rs-10-4") * kBlockSize;
  auto writer = client.create("/doomed", "rs-10-4", kBlockSize);
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer->append(payload(stripe_bytes)).is_ok());
  for (cluster::NodeId node = 0; node < 12; ++node) {
    ASSERT_TRUE(dfs.fail_node(node).is_ok());
  }
  EXPECT_EQ(writer->append(payload(2 * stripe_bytes)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(writer->append(payload(1)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(writer->bytes_appended(), stripe_bytes);
  EXPECT_EQ(writer->close().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(dfs.stat("/doomed").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dfs.catalog().num_stripes(), 0u);
  EXPECT_EQ(dfs.stored_bytes(), 0u);
}

TEST(FileWriter, StatShowsOpenThenSealed) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  const std::size_t stripe_bytes = data_blocks("pentagon") * kBlockSize;
  auto writer = client.create("/w", "pentagon", kBlockSize);
  ASSERT_TRUE(writer.is_ok());

  // Open: visible to stat (unsealed, bytes stored so far), not to readers.
  auto info = dfs.stat("/w");
  ASSERT_TRUE(info.is_ok());
  EXPECT_FALSE(info->sealed);
  EXPECT_EQ(info->length, 0u);
  EXPECT_EQ(dfs.read_file("/w").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(writer->append(payload(stripe_bytes + 7)).is_ok());
  info = dfs.stat("/w");
  ASSERT_TRUE(info.is_ok());
  EXPECT_FALSE(info->sealed);
  EXPECT_EQ(info->length, stripe_bytes);  // the full stripe has landed

  ASSERT_TRUE(writer->close().is_ok());
  info = dfs.stat("/w");
  ASSERT_TRUE(info.is_ok());
  EXPECT_TRUE(info->sealed);
  EXPECT_EQ(info->length, stripe_bytes + 7);
  EXPECT_TRUE(dfs.read_file("/w").is_ok());
}

TEST(FileWriter, AbortAndDestructorRollBack) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  const std::size_t stripe_bytes = data_blocks("pentagon") * kBlockSize;
  {
    auto writer = client.create("/gone", "pentagon", kBlockSize);
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer->append(payload(2 * stripe_bytes)).is_ok());
    ASSERT_TRUE(writer->abort().is_ok());
  }
  {
    auto writer = client.create("/dropped", "pentagon", kBlockSize);
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer->append(payload(stripe_bytes)).is_ok());
    // Destroyed while open: the write aborts.
  }
  EXPECT_EQ(dfs.stored_bytes(), 0u);
  EXPECT_EQ(dfs.catalog().num_stripes(), 0u);
  EXPECT_EQ(dfs.stat("/gone").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dfs.stat("/dropped").status().code(), StatusCode::kNotFound);
  // Both paths are free again.
  EXPECT_TRUE(client.create("/gone", "pentagon", kBlockSize).is_ok());
}

TEST(FileWriter, LifecycleErrors) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  auto writer = client.create("/x", "pentagon", kBlockSize);
  ASSERT_TRUE(writer.is_ok());
  // The path is reserved while the handle is open.
  EXPECT_EQ(client.create("/x", "pentagon", kBlockSize).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dfs.write_file("/x", payload(10), "pentagon", kBlockSize).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(writer->close().is_ok());
  EXPECT_EQ(writer->append(payload(8)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->close().code(), StatusCode::kFailedPrecondition);
  // Unknown code / zero block size fail at create.
  EXPECT_EQ(client.create("/y", "nonagon", kBlockSize).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.create("/y", "pentagon", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FileWriter, EmptyFilePublishes) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  auto writer = client.create("/empty", "rs-10-4", kBlockSize);
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer->close().is_ok());
  const auto info = dfs.stat("/empty");
  ASSERT_TRUE(info.is_ok());
  EXPECT_TRUE(info->sealed);
  EXPECT_EQ(info->length, 0u);
  const auto read = dfs.read_file("/empty");
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(read->empty());
}

// ------------------------------------------------------------- pread

TEST_P(ClientSchemeTest, PreadPartitionsConcatToReadFile) {
  const std::string spec = GetParam();
  const std::size_t stripe_bytes = data_blocks(spec) * kBlockSize;
  const Buffer data = payload(2 * stripe_bytes + kBlockSize + 13, 3);

  // Healthy, then 1..min(3, tolerance) failures: the partition property
  // must hold through the degraded-read path too.
  const int max_failures = std::min(3, fault_tolerance(spec));
  for (int failures = 0; failures <= max_failures; ++failures) {
    MiniDfs dfs = make_dfs();
    Client client(dfs);
    ASSERT_TRUE(client.write("/f", data, spec, kBlockSize).is_ok());
    if (failures > 0) {
      fail_group_nodes(dfs, "/f", static_cast<std::size_t>(failures));
    }
    const auto whole = client.read("/f");
    ASSERT_TRUE(whole.is_ok())
        << spec << " failures=" << failures << ": "
        << whole.status().to_string();
    ASSERT_EQ(*whole, data);

    // Several partitions of [0, length): block-aligned, stripe-aligned,
    // and random unaligned chunk sizes.
    std::vector<std::vector<std::size_t>> partitions;
    partitions.push_back({kBlockSize});            // block-by-block
    partitions.push_back({stripe_bytes});          // stripe-by-stripe
    partitions.push_back({data.size()});           // one shot
    partitions.push_back({1 + kBlockSize / 3, kBlockSize - 1, 7,
                          stripe_bytes + 5});      // ragged cycle
    for (const auto& chunk_cycle : partitions) {
      Buffer reassembled;
      std::size_t offset = 0;
      std::size_t turn = 0;
      while (offset < data.size()) {
        const std::size_t len = chunk_cycle[turn++ % chunk_cycle.size()];
        const auto chunk = client.pread("/f", offset, len);
        ASSERT_TRUE(chunk.is_ok())
            << spec << " failures=" << failures << " offset=" << offset
            << ": " << chunk.status().to_string();
        ASSERT_FALSE(chunk->empty());
        reassembled.insert(reassembled.end(), chunk->begin(), chunk->end());
        offset += chunk->size();
      }
      ASSERT_EQ(reassembled, data)
          << spec << " failures=" << failures
          << ": concatenated preads diverge from read_file";
    }
  }
}

TEST(Pread, CrossesBlockAndStripeBoundaries) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  const std::size_t k = data_blocks("rs-10-4");
  const std::size_t stripe_bytes = k * kBlockSize;
  const Buffer data = payload(3 * stripe_bytes, 5);
  ASSERT_TRUE(client.write("/f", data, "rs-10-4", kBlockSize).is_ok());

  const auto expect_range = [&](std::size_t offset, std::size_t len) {
    const auto got = client.pread("/f", offset, len);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    const std::size_t want = std::min(len, data.size() - offset);
    ASSERT_EQ(got->size(), want);
    EXPECT_EQ(0, std::memcmp(got->data(), data.data() + offset, want))
        << "range [" << offset << ", +" << len << ")";
  };
  expect_range(kBlockSize - 1, 2);                // block boundary
  expect_range(stripe_bytes - 3, 7);              // stripe boundary
  expect_range(stripe_bytes - 1, stripe_bytes + 2);  // spans a full stripe
  expect_range(0, 1);                             // first byte
  expect_range(data.size() - 1, 1);               // last byte
  expect_range(kBlockSize / 2, kBlockSize);       // inside two blocks
}

TEST(Pread, EdgeRanges) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  const Buffer data = payload(data_blocks("pentagon") * kBlockSize + 9, 8);
  ASSERT_TRUE(client.write("/f", data, "pentagon", kBlockSize).is_ok());

  // Zero-length anywhere in range: empty, and no bytes move.
  const double client_bytes0 = dfs.traffic().client_bytes();
  for (const std::size_t offset : {std::size_t{0}, kBlockSize, data.size()}) {
    const auto got = client.pread("/f", offset, 0);
    ASSERT_TRUE(got.is_ok());
    EXPECT_TRUE(got->empty());
  }
  // Reading *at* EOF is a legal empty read even with len > 0.
  const auto at_eof = client.pread("/f", data.size(), 10);
  ASSERT_TRUE(at_eof.is_ok());
  EXPECT_TRUE(at_eof->empty());
  EXPECT_EQ(dfs.traffic().client_bytes(), client_bytes0);

  // Overshooting len clamps at EOF.
  const auto tail = client.pread("/f", data.size() - 5, 1000);
  ASSERT_TRUE(tail.is_ok());
  EXPECT_EQ(tail->size(), 5u);
  EXPECT_EQ(0, std::memcmp(tail->data(), data.data() + data.size() - 5, 5));

  // An offset beyond EOF is an argument error; unknown paths are NOT_FOUND.
  EXPECT_EQ(client.pread("/f", data.size() + 1, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.pread("/nope", 0, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(Pread, MovesStrictlyFewerClientBytesThanReadFile) {
  MiniDfs dfs = make_dfs();
  Client client(dfs);
  const std::size_t stripe_bytes = data_blocks("rs-10-4") * kBlockSize;
  const Buffer data = payload(4 * stripe_bytes, 9);
  ASSERT_TRUE(client.write("/f", data, "rs-10-4", kBlockSize).is_ok());

  const double before_pread = dfs.traffic().client_bytes();
  ASSERT_TRUE(client.pread("/f", kBlockSize, kBlockSize).is_ok());
  const double pread_bytes = dfs.traffic().client_bytes() - before_pread;

  const double before_read = dfs.traffic().client_bytes();
  ASSERT_TRUE(client.read("/f").is_ok());
  const double read_bytes = dfs.traffic().client_bytes() - before_read;

  // One aligned block resolves exactly one block off the wire.
  EXPECT_EQ(pread_bytes, static_cast<double>(kBlockSize));
  EXPECT_LT(pread_bytes, read_bytes);
  EXPECT_EQ(read_bytes, static_cast<double>(data.size()));
}

TEST(Pread, CorruptSubChunkUnitChargesTheDegradedPlan) {
  // clay-6-4 and pgy-10-4 store each block as α units, one slot each. A
  // healthy window verifies and charges every unit of the block it
  // touches, the units outside it included. One corrupt unit of that block
  // -- inside the window, or outside it -- sends the block to the degraded
  // read, which charges exactly its plan's sends: the units already read
  // are not charged.
  for (const std::string spec : {"clay-6-4", "pgy-10-4"}) {
    const std::size_t block = 1;
    for (const bool inside : {true, false}) {
      MiniDfs dfs = make_dfs();
      Client client(dfs);
      const Buffer data = payload(2 * data_blocks(spec) * kBlockSize, 43);
      ASSERT_TRUE(client.write("/f", data, spec, kBlockSize).is_ok());
      const ec::CodeScheme& code = *dfs.code_for("/f").value();
      const std::size_t alpha = code.sub_chunks();
      const std::size_t unit = kBlockSize / alpha;
      ASSERT_GT(alpha, 1u) << spec;
      // Inside: units 0 and 1 of the block, unit 1 corrupt. Outside: half
      // of unit 0, the block's last unit corrupt.
      const std::size_t offset =
          block * kBlockSize + (inside ? unit / 2 : unit / 4);
      const std::size_t len = inside ? unit : unit / 2;
      const std::size_t bad_unit = inside ? 1 : alpha - 1;
      const auto expect_window = [&] {
        const auto got = client.pread("/f", offset, len);
        ASSERT_TRUE(got.is_ok()) << spec << ": " << got.status().to_string();
        EXPECT_EQ(*got, ByteSpan(data).subspan(offset, len)) << spec;
      };

      dfs.traffic().reset();
      expect_window();
      EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(),
                       static_cast<double>(kBlockSize))
          << spec;

      const auto stripe = dfs.stat("/f")->stripes[0];
      const std::size_t slot =
          code.layout().slots_of_symbol(block * alpha + bad_unit)[0];
      ASSERT_TRUE(dfs.datanode(dfs.catalog().node_of({stripe, slot}))
                      .corrupt({stripe, slot}, 0)
                      .is_ok());
      const auto plan = code.plan_degraded_block(
          block, {code.layout().node_of_slot(slot)});
      ASSERT_TRUE(plan.is_ok()) << spec;
      dfs.traffic().reset();
      expect_window();
      EXPECT_DOUBLE_EQ(
          dfs.traffic().total_bytes(),
          static_cast<double>(plan->network_bytes(kBlockSize, alpha)))
          << spec << (inside ? " inside" : " outside");
    }
  }
}

TEST(ReadBlock, IndicesPastLogicalEofRejected) {
  MiniDfs dfs = make_dfs();
  // 2 logical blocks of a pentagon stripe (k = 4): indices 2..3 fall in
  // the stripe's zero-padding and must be rejected, not served.
  const Buffer data = payload(2 * kBlockSize, 4);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  EXPECT_TRUE(dfs.read_block("/f", 0).is_ok());
  EXPECT_TRUE(dfs.read_block("/f", 1).is_ok());
  EXPECT_EQ(dfs.read_block("/f", 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dfs.read_block("/f", 999).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CodeFor, UnknownPathIsStatusNotCrash) {
  MiniDfs dfs = make_dfs();
  const auto code = dfs.code_for("/missing");
  EXPECT_FALSE(code.is_ok());
  EXPECT_EQ(code.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- async

TEST(AsyncClient, MatchesSyncBytesAndTraffic) {
  // Same seed, same ops: the async path must move exactly the same bytes
  // over the wire as the sync path -- healthy and degraded.
  exec::ThreadPool pool(4);
  const std::size_t stripe_bytes = data_blocks("rs-10-4") * kBlockSize;
  const Buffer data = payload(3 * stripe_bytes + 17, 6);

  for (const std::size_t failures : {std::size_t{0}, std::size_t{2}}) {
    MiniDfs sync_dfs = make_dfs(25, 7, &pool);
    MiniDfs async_dfs = make_dfs(25, 7, &pool);
    Client sync_client(sync_dfs);
    Client async_client(async_dfs);

    ASSERT_TRUE(
        sync_client.write("/f", data, "rs-10-4", kBlockSize).is_ok());
    auto write_future =
        async_client.write_async("/f", data, "rs-10-4", kBlockSize);
    ASSERT_TRUE(write_future.get().is_ok());
    if (failures > 0) {
      fail_group_nodes(sync_dfs, "/f", failures);
      fail_group_nodes(async_dfs, "/f", failures);
    }

    const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, stripe_bytes}, {kBlockSize - 1, 2 * kBlockSize}, {5, 1},
        {stripe_bytes - 2, kBlockSize}, {0, data.size()}};
    std::vector<exec::Future<Result<SharedBlock>>> futures;
    futures.reserve(ranges.size());
    for (const auto& [offset, len] : ranges) {
      futures.push_back(async_client.pread_async("/f", offset, len));
    }
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const auto sync_result =
          sync_client.pread("/f", ranges[i].first, ranges[i].second);
      auto async_result = futures[i].get();
      ASSERT_TRUE(sync_result.is_ok()) << sync_result.status().to_string();
      ASSERT_TRUE(async_result.is_ok()) << async_result.status().to_string();
      EXPECT_EQ(*sync_result, *async_result);
    }
    auto whole = async_client.read_async("/f").get();
    ASSERT_TRUE(whole.is_ok());
    EXPECT_EQ(*whole, data);
    ASSERT_TRUE(sync_client.read("/f").is_ok());

    // Identical placement + identical op sequence => identical traffic,
    // to the byte, in every bucket.
    EXPECT_EQ(async_dfs.traffic().total_bytes(),
              sync_dfs.traffic().total_bytes());
    EXPECT_EQ(async_dfs.traffic().client_bytes(),
              sync_dfs.traffic().client_bytes());
    EXPECT_EQ(async_dfs.traffic().cross_rack_bytes(),
              sync_dfs.traffic().cross_rack_bytes());
  }
}

TEST(AsyncClient, HundredsOfOperationsInFlight) {
  exec::ThreadPool pool(4);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  Client client(dfs);
  const std::size_t stripe_bytes = data_blocks("pentagon") * kBlockSize;
  const Buffer data = payload(2 * stripe_bytes, 12);
  ASSERT_TRUE(client.write("/f", data, "pentagon", kBlockSize).is_ok());

  // One caller thread, hundreds of outstanding futures.
  std::vector<exec::Future<Result<SharedBlock>>> reads;
  std::vector<exec::Future<Status>> writes;
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t offset = (i * 37) % data.size();
    reads.push_back(client.pread_async(
        "/f", offset, 1 + (i % (2 * kBlockSize))));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    writes.push_back(client.write_async("/w" + std::to_string(i), data,
                                        "pentagon", kBlockSize));
  }
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const std::size_t offset = (i * 37) % data.size();
    const std::size_t len = 1 + (i % (2 * kBlockSize));
    auto result = reads[i].get();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const std::size_t want = std::min(len, data.size() - offset);
    ASSERT_EQ(result->size(), want);
    EXPECT_EQ(0, std::memcmp(result->data(), data.data() + offset, want));
  }
  for (auto& status : writes) EXPECT_TRUE(status.get().is_ok());
  EXPECT_EQ(dfs.list_files().size(), 17u);
  EXPECT_TRUE(dfs.scrub().is_ok());
}

// ----------------------------------------------- workload driver mixes

TEST(WorkloadMixes, PreadAndAppendClientsRunCleanly) {
  exec::ThreadPool pool(2);
  MiniDfs dfs = make_dfs(25, 7, &pool);
  WorkloadOptions options;
  options.clients = 3;
  options.ops_per_client = 40;
  options.read_fraction = 0.3;
  options.write_fraction = 0.1;
  options.degraded_fraction = 0.1;
  options.pread_fraction = 0.3;
  options.append_fraction = 0.2;
  options.code_spec = "rs-10-4";
  options.block_size = kBlockSize;
  options.seed = 5;
  WorkloadDriver driver(dfs, options);
  ASSERT_TRUE(driver.preload().is_ok());
  const auto report = driver.run();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->total_errors(), 0u);
  EXPECT_GT(report->pread.latency_us.count(), 0u);
  EXPECT_GT(report->append.latency_us.count(), 0u);
  EXPECT_GE(report->total_ops(),
            options.clients * options.ops_per_client);
  // Append-created files hold the shared payload (or a prefix), and the
  // cluster stays codeword-consistent under the mixed handle traffic.
  EXPECT_TRUE(dfs.scrub().is_ok());
  for (const auto& path : dfs.list_files()) {
    const auto info = dfs.stat(path);
    ASSERT_TRUE(info.is_ok());
    EXPECT_TRUE(info->sealed) << path;
    const auto bytes = dfs.read_file(path);
    ASSERT_TRUE(bytes.is_ok()) << path;
    ASSERT_LE(bytes->size(), driver.payload().size()) << path;
    EXPECT_EQ(0, std::memcmp(bytes->data(), driver.payload().data(),
                             bytes->size()))
        << path << " diverges from the shared payload";
  }
}

// ------------------------------------------- metadata shard equivalence

MiniDfs make_sharded(std::size_t shards, exec::ThreadPool* pool = nullptr) {
  cluster::Topology topology;
  topology.num_nodes = 25;
  MiniDfsOptions options;
  options.meta_shards = shards;
  return MiniDfs(topology, /*seed=*/7, pool, options);
}

/// Streams one file through the handle API, preads three ranges, and
/// captures every client-visible observable.
struct ClientShardRun {
  Buffer whole;
  std::vector<Buffer> ranges;
  std::uint64_t length = 0;
  std::size_t num_stripes = 0;
  double traffic_total = 0;
  double traffic_client = 0;
  std::uint64_t catalog_fp = 0;
};

ClientShardRun run_client_scenario(const std::string& spec,
                                   std::size_t shards, const Buffer& data) {
  MiniDfs dfs = make_sharded(shards);
  Client client(dfs, {.max_inflight_stripes = 2});
  auto writer = client.create("/h/file", spec, kBlockSize);
  EXPECT_TRUE(writer.is_ok()) << writer.status().to_string();
  // Odd-sized chunks exercise the sub-stripe buffering path.
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t len =
        std::min<std::size_t>(3 * kBlockSize - 7, data.size() - offset);
    EXPECT_TRUE(writer->append(ByteSpan(data).subspan(offset, len)).is_ok());
    offset += len;
  }
  EXPECT_TRUE(writer->close().is_ok());

  ClientShardRun run;
  const auto whole = dfs.read_file("/h/file");
  EXPECT_TRUE(whole.is_ok());
  if (whole.is_ok()) run.whole.assign(whole->begin(), whole->end());
  for (const auto& [off, len] :
       {std::pair<std::size_t, std::size_t>{0, kBlockSize},
        {kBlockSize / 2, 2 * kBlockSize},
        {data.size() - kBlockSize, 2 * kBlockSize}}) {
    const auto range = dfs.pread("/h/file", off, len);
    EXPECT_TRUE(range.is_ok());
    if (range.is_ok()) run.ranges.emplace_back(range->begin(), range->end());
  }
  const auto info = dfs.stat("/h/file");
  EXPECT_TRUE(info.is_ok());
  if (info.is_ok()) {
    run.length = info->length;
    run.num_stripes = info->stripes.size();
  }
  run.traffic_total = dfs.traffic().total_bytes();
  run.traffic_client = dfs.traffic().client_bytes();
  run.catalog_fp = dfs.catalog_fingerprint();
  return run;
}

TEST_P(ClientSchemeTest, StreamingAndPreadAreShardCountInvariant) {
  const std::string spec = GetParam();
  const std::size_t stripe_bytes = data_blocks(spec) * kBlockSize;
  const Buffer data = payload(2 * stripe_bytes + kBlockSize + 9);

  const ClientShardRun one = run_client_scenario(spec, 1, data);
  EXPECT_EQ(one.whole, data);
  for (const std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE(spec + " shards=" + std::to_string(shards));
    const ClientShardRun many = run_client_scenario(spec, shards, data);
    EXPECT_EQ(many.whole, one.whole);
    EXPECT_EQ(many.ranges, one.ranges);
    EXPECT_EQ(many.length, one.length);
    EXPECT_EQ(many.num_stripes, one.num_stripes);
    EXPECT_DOUBLE_EQ(many.traffic_total, one.traffic_total);
    EXPECT_DOUBLE_EQ(many.traffic_client, one.traffic_client);
    EXPECT_EQ(many.catalog_fp, one.catalog_fp);
  }
}

TEST(ClientShards, ConcurrentWritersOnSameAndDifferentShards) {
  // Two handle writers streaming concurrently -- one pair of paths picked
  // to hash to the same metadata shard, one to different shards -- must
  // both publish intact under a 16-shard NameNode.
  exec::ThreadPool pool(2);
  MiniDfs dfs = make_sharded(16, &pool);

  // Find a path that collides with "/c/a" and one that does not.
  const std::size_t base = dfs.namenode().shard_of("/c/a");
  std::string same, other;
  for (int i = 0; same.empty() || other.empty(); ++i) {
    const std::string candidate = "/c/b" + std::to_string(i);
    const std::size_t shard = dfs.namenode().shard_of(candidate);
    if (shard == base && same.empty()) same = candidate;
    if (shard != base && other.empty()) other = candidate;
  }

  const Buffer data = payload(data_blocks("pentagon") * kBlockSize * 3, 21);
  for (const auto& partner : {same, other}) {
    SCOPED_TRACE(partner);
    Client client(dfs, {.max_inflight_stripes = 2});
    auto a = client.create("/c/a", "pentagon", kBlockSize);
    auto b = client.create(partner, "pentagon", kBlockSize);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    std::thread ta([&] {
      EXPECT_TRUE(a->append(data).is_ok());
      EXPECT_TRUE(a->close().is_ok());
    });
    std::thread tb([&] {
      EXPECT_TRUE(b->append(data).is_ok());
      EXPECT_TRUE(b->close().is_ok());
    });
    ta.join();
    tb.join();
    for (const auto& path : {std::string("/c/a"), partner}) {
      const auto read = dfs.read_file(path);
      ASSERT_TRUE(read.is_ok()) << path;
      EXPECT_EQ(*read, data) << path;
    }
    ASSERT_TRUE(dfs.delete_file("/c/a").is_ok());
    ASSERT_TRUE(dfs.delete_file(partner).is_ok());
  }
}

}  // namespace
}  // namespace dblrep::hdfs
