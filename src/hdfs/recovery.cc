#include "hdfs/recovery.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace dblrep::hdfs {

Buffer truncate_journal_at_seq(ByteSpan journal, std::uint64_t cut_seq) {
  const ParsedJournal parsed = parse_journal(journal);
  Buffer out;
  for (const JournalRecord& rec : parsed.records) {
    if (rec.seq >= cut_seq) break;  // seq-monotone: a prefix cut
    const Buffer framed = encode_record(rec);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  return out;
}

Result<RecoveryReport> NameNode::restore(std::vector<Buffer> snapshots,
                                         std::vector<Buffer> journals) {
  // Caller guarantees quiescence: a crash has no concurrent clients.
  if (snapshots.size() != shards_.size() ||
      journals.size() != shards_.size()) {
    return invalid_argument_error(
        "restore artifacts do not match the shard count");
  }

  RecoveryReport report;
  report.shards = shards_.size();
  std::vector<std::unique_ptr<Shard>> rebuilt;
  rebuilt.reserve(shards_.size());

  std::uint64_t seq = 0;
  std::uint64_t next_id = 0;
  const auto saw_stripes = [&next_id](const std::vector<std::uint64_t>& ids) {
    for (std::uint64_t id : ids) next_id = std::max(next_id, id + 1);
  };
  // Every replayed and reconciliation record goes through apply(), the
  // code the live mutations run, and then onto the rebuilt journal.
  const auto replay = [this](Shard& shard, const JournalRecord& record) {
    DBLREP_RETURN_IF_ERROR(apply(shard, record, /*removed=*/nullptr));
    shard.journal.append(record);
    return Status::ok();
  };

  // Phase 1: per shard, install the snapshot image as it is, then replay
  // the journal onto it.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    rebuilt.push_back(std::make_unique<Shard>(topology_));
    Shard& shard = *rebuilt.back();

    DBLREP_ASSIGN_OR_RETURN(const ShardImage image,
                            decode_snapshot(snapshots[i]));
    seq = std::max(seq, image.last_seq);
    next_id = std::max(next_id, image.next_stripe_id);
    report.snapshot_files += image.files.size() + image.pending.size();
    report.snapshot_stripes += image.stripes.size();
    for (const ShardImage::Stripe& s : image.stripes) {
      DBLREP_ASSIGN_OR_RETURN(const ec::CodeScheme* code,
                              resolver_(s.code_spec));
      DBLREP_RETURN_IF_ERROR(shard.catalog.register_stripe_at(
          s.id, *code,
          std::vector<cluster::NodeId>(s.group.begin(), s.group.end()),
          s.sealed));
      shard.stripe_specs.emplace(s.id, s.code_spec);
      next_id = std::max(next_id, s.id + 1);
    }
    for (const auto& [path, state] : image.files) {
      saw_stripes(state.stripes);
      shard.files.emplace(path, to_file_info(state, /*sealed=*/true));
    }
    for (const auto& [path, state] : image.pending) {
      saw_stripes(state.stripes);
      shard.pending.emplace(path, to_file_info(state, /*sealed=*/false));
    }
    shard.snapshot = std::move(snapshots[i]);

    const ParsedJournal parsed = parse_journal(journals[i]);
    report.journal_bytes_discarded += parsed.discarded_bytes;
    for (const JournalRecord& record : parsed.records) {
      seq = std::max(seq, record.seq);
      saw_stripes(record.stripes);
      saw_stripes(record.file.stripes);
      DBLREP_RETURN_IF_ERROR(replay(shard, record));
      ++report.journal_records_replayed;
    }
    if (shard.journal.num_records() == 0) {
      shard.journal.set_last_seq(image.last_seq);
    }
  }

  // Phase 2: reconcile, journaling each fix with a seq past everything the
  // artifacts mention.
  const auto reconcile = [&](Shard& shard, JournalRecord record) {
    record.seq = ++seq;
    return replay(shard, record);
  };

  // 2a: finish dangling cross-shard renames. Runs before the orphan sweep
  // so completed renames anchor their stripes as referenced.
  for (const auto& src : rebuilt) {
    while (!src->rename_intents.empty()) {
      const auto& [from, intent] = *src->rename_intents.begin();
      const auto& [to, state] = intent;
      Shard& dst = *rebuilt[shard_of(to)];
      if (!dst.files.contains(to) && !dst.pending.contains(to)) {
        // The destination's RenameIn was lost: re-apply and re-journal it.
        DBLREP_RETURN_IF_ERROR(reconcile(
            dst,
            {.kind = JournalRecordKind::kRenameIn, .path2 = to, .file = state}));
      }
      DBLREP_RETURN_IF_ERROR(reconcile(
          *src, {.kind = JournalRecordKind::kRenameAck, .path = from}));
      ++report.rename_intents_completed;
    }
  }

  // 2b: roll back every open write -- its client died with us.
  for (const auto& shard : rebuilt) {
    while (!shard->pending.empty()) {
      DBLREP_RETURN_IF_ERROR(
          reconcile(*shard, {.kind = JournalRecordKind::kAbort,
                             .path = shard->pending.begin()->first}));
      ++report.open_writes_rolled_back;
    }
  }

  // 2c: orphan sweep. A stripe no file references is the debris of a
  // delete whose foreign kGcStripes never hit disk.
  std::set<cluster::StripeId> referenced;
  for (const auto& shard : rebuilt) {
    for (const auto& [path, info] : shard->files) {
      referenced.insert(info.stripes.begin(), info.stripes.end());
    }
  }
  for (const auto& shard : rebuilt) {
    JournalRecord gc{.kind = JournalRecordKind::kGcStripes};
    for (cluster::StripeId id : shard->catalog.live_stripe_ids()) {
      if (!referenced.contains(id)) gc.stripes.push_back(id);
    }
    if (gc.stripes.empty()) continue;
    report.orphan_stripes_gced += gc.stripes.size();
    DBLREP_RETURN_IF_ERROR(reconcile(*shard, std::move(gc)));
  }

  // Phase 3: install. Rebuild the router; counters resume past every id
  // and seq the artifacts mention (ids are never reused -- even ids only
  // a rolled-back write consumed may still label stale datanode blocks).
  shards_ = std::move(rebuilt);
  router_reset();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (cluster::StripeId id : shards_[i]->catalog.live_stripe_ids()) {
      router_insert(id, static_cast<std::uint32_t>(i));
    }
  }
  next_stripe_id_.store(next_id);
  seq_.store(seq);
  return report;
}

}  // namespace dblrep::hdfs
