// NameNode crash recovery: snapshot + journal replay + reconciliation.
//
// restore() (declared on NameNode, defined here) rebuilds the whole
// metadata plane from per-shard durable artifacts:
//
//  1. Per shard: decode the snapshot image (strict -- a damaged snapshot
//     is CORRUPTION), then parse the journal with parse_journal (lenient
//     -- a torn or CRC-bad tail is discarded) and replay each record in
//     order onto the image. Every record goes through NameNode::apply,
//     the code the live mutations run, so replay does exactly what the
//     mutation did when it journaled the record -- a kRenameOut without
//     its kRenameAck stays behind as an open rename intent.
//
//  2. Across shards: reconcile what a crash can leave half-done. Each fix
//     is a record built here, applied through NameNode::apply and
//     journaled with a seq past every seq the artifacts mention.
//      * A rename intent is finished: kRenameIn in the destination shard
//        if its journal lost it, then kRenameAck in the source. (Run
//        before the orphan sweep so the referenced-stripe set is already
//        right.)
//      * Every surviving pending entry is an open write whose client died
//        with the NameNode: a kAbort unregisters its stripes and drops it
//        -- open writes roll back.
//      * Stripes referenced by no file on any shard (a delete's kDelete
//        survived but a foreign kGcStripes did not) get a kGcStripes --
//        the orphan sweep.
//
//  3. Install: the rebuilt shards replace the live ones, the stripe
//     router is rebuilt, and the global id/seq counters resume past every
//     id and seq the artifacts mention (ids are never reused, even ids
//     only a rolled-back write consumed).
//
// The result is fingerprint-identical to the pre-crash NameNode whenever
// no records were lost, and lands on a consistent pre-/post-mutation
// boundary for every record that was: tests/recovery_test.cc's crash-point
// fuzzer enumerates every such cut.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "hdfs/namenode.h"

namespace dblrep::hdfs {

/// The crash-point fuzzer's knife: keeps exactly the records with
/// seq < cut_seq (journals are seq-monotone, so this is a prefix), then
/// re-frames them. Applying the same cut to every shard's journal
/// reproduces the global crash point "nothing from seq cut_seq onward
/// reached disk".
Buffer truncate_journal_at_seq(ByteSpan journal, std::uint64_t cut_seq);

}  // namespace dblrep::hdfs
