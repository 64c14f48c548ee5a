/// The durable-store stack below the crash matrix:
///   * atomic-replace and append primitives (core/durable_io.h);
///   * DurableStore segment rotation, snapshot checkpoints, manifest
///     swaps, orphan collection, and the bounded-replay revival contract;
///   * hostile-bytes fuzzing of the manifest and segment formats — every
///     single-byte mutation and every truncation is detected, never
///     silently replayed (the segment format may only lose a torn TAIL);
///   * GuardedEngine::AttachDurability / Compact end to end.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/fault.h"
#include "dynfo/journal.h"
#include "dynfo/recovery.h"
#include "dynfo/workload.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/serialize.h"

namespace dynfo::dyn {
namespace {

using relational::Request;
using relational::RequestSequence;

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "dynfo_durability_" + name;
}

/// Removes `dir` and every regular file directly inside it (the store's
/// layout is flat, so one level suffices).
void RemoveTree(const std::string& dir) {
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

RequestSequence ReachWorkload(size_t n, uint64_t seed, size_t count) {
  GraphWorkloadOptions options;
  options.num_requests = count;
  options.seed = seed;
  options.undirected = true;
  options.set_fraction = 0.05;
  return MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n, options);
}

// ---------------------------------------------------------------------------
// core/durable_io.h primitives
// ---------------------------------------------------------------------------

TEST(DurableIoTest, AtomicWriteFileCreatesAndReplaces) {
  const std::string dir = TempDirFor("atomic");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/target";

  ASSERT_TRUE(core::AtomicWriteFile(path, "first").ok());
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "first");

  ASSERT_TRUE(core::AtomicWriteFile(path, "second, longer contents").ok());
  read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "second, longer contents");

  // No temp sibling is left behind.
  EXPECT_FALSE(core::FileExists(path + ".tmp"));
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 1u);
  RemoveTree(dir);
}

TEST(DurableIoTest, AppendFilePersistsAcrossReopen) {
  const std::string dir = TempDirFor("append");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/log";
  {
    core::Result<core::AppendFile> file = core::AppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value().Append("one\n").ok());
    ASSERT_TRUE(file.value().Append("two\n").ok());
    ASSERT_TRUE(file.value().Fsync().ok());
  }
  {
    core::Result<core::AppendFile> file = core::AppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value().Append("three\n").ok());
  }
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "one\ntwo\nthree\n");
  RemoveTree(dir);
}

TEST(DurableIoTest, TruncateAndRemoveDurable) {
  const std::string dir = TempDirFor("trunc");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/f";
  ASSERT_TRUE(core::AtomicWriteFile(path, "0123456789").ok());
  ASSERT_TRUE(core::TruncateFileDurable(path, 4).ok());
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "0123");
  ASSERT_TRUE(core::RemoveFileDurable(path).ok());
  EXPECT_FALSE(core::FileExists(path));
  // Removing an already-absent file is not an error (GC idempotence).
  EXPECT_TRUE(core::RemoveFileDurable(path).ok());
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// DurableStore: rotation, checkpoints, GC, revival
// ---------------------------------------------------------------------------

/// The directory's file names, sorted (empty when it cannot be listed).
std::vector<std::string> SortedNames(const std::string& dir) {
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  if (!names.ok()) return {};
  std::vector<std::string> out = names.value();
  std::sort(out.begin(), out.end());
  return out;
}

/// Drives the store exactly as the recovery layer does: append, and on
/// checkpoint_due write a blob naming the step (the store treats blobs as
/// opaque bytes, so the test can use legible stand-ins). After every
/// checkpoint the directory holds exactly the manifest, the new snapshot
/// and the fresh segment.
void DriveStore(DurableStore* store, const RequestSequence& requests,
                std::string* latest_full) {
  for (const Request& request : requests) {
    ASSERT_TRUE(store->Append({&request, 1}).ok());
    if (store->checkpoint_due()) {
      const std::string steps = std::to_string(store->next_seq());
      *latest_full = "full@" + steps;
      ASSERT_TRUE(store->Checkpoint(*latest_full).ok());
      EXPECT_EQ(SortedNames(store->dir()),
                (std::vector<std::string>{"MANIFEST", "full-" + steps + ".snap",
                                          "seg-" + steps + ".log"}));
    }
  }
}

TEST(DurableStoreTest, CreateAppendRotateAndReviveWithBoundedReplay) {
  const std::string dir = TempDirFor("store_rt");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 3, 22);

  DurableStoreOptions options;
  options.records_per_segment = 4;
  std::string latest_full = "full@0";
  uint64_t appended = 0;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, latest_full, 0, options);
    ASSERT_TRUE(created.ok()) << created.status().message();
    DurableStore store = std::move(created).value();
    EXPECT_TRUE(DurableStore::Exists(dir));
    DriveStore(&store, requests, &latest_full);
    appended = store.next_seq();
    EXPECT_EQ(appended, requests.size());
    EXPECT_EQ(store.counters().appends, requests.size());
    EXPECT_EQ(store.counters().fsyncs, requests.size());  // default durable
    EXPECT_GT(store.counters().segments_rotated, 0u);
    // 22 appends at interval 4 = 5 checkpoints, each a full snapshot.
    EXPECT_EQ(store.counters().full_snapshots, 5u + 1u /* the Create-time one */);
    EXPECT_EQ(store.counters().checkpoints, 0u);
  }

  core::Result<DurableStore> opened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const DurableRecovery& recovered = opened.value().recovered();
  EXPECT_EQ(recovered.full_blob, latest_full);
  EXPECT_FALSE(recovered.torn_tail);
  // Replay is bounded by one segment, and is exactly the workload suffix
  // past the last checkpoint.
  const uint64_t snapshot_steps = opened.value().manifest().full_steps;
  EXPECT_LE(recovered.replay.size(), options.records_per_segment);
  EXPECT_EQ(snapshot_steps + recovered.replay.size(), appended);
  for (size_t i = 0; i < recovered.replay.size(); ++i) {
    EXPECT_EQ(recovered.replay[i], requests[snapshot_steps + i])
        << "replay record " << i;
  }
  EXPECT_EQ(opened.value().next_seq(), appended);

  // GC: the directory holds exactly the manifest plus its referenced files.
  EXPECT_EQ(SortedNames(dir),
            (std::vector<std::string>{"MANIFEST", "full-20.snap", "seg-20.log"}))
      << "directory holds unreferenced files";
  RemoveTree(dir);
}

TEST(DurableStoreTest, AppendsAfterReviveContinueTheSequence) {
  const std::string dir = TempDirFor("store_cont");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 7, 10);
  DurableStoreOptions options;
  options.records_per_segment = 4;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
    ASSERT_TRUE(created.ok());
    DurableStore store = std::move(created).value();
    for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(store.Append({&requests[i], 1}).ok());
  }
  {
    core::Result<DurableStore> opened =
        DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
    ASSERT_TRUE(opened.ok());
    DurableStore store = std::move(opened).value();
    EXPECT_EQ(store.next_seq(), 3u);
    for (size_t i = 3; i < requests.size(); ++i) {
      ASSERT_TRUE(store.Append({&requests[i], 1}).ok());
      if (store.checkpoint_due()) {
        ASSERT_TRUE(store.Checkpoint("full@" + std::to_string(store.next_seq())).ok());
      }
    }
  }
  core::Result<DurableStore> opened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().next_seq(), requests.size());
  RemoveTree(dir);
}

TEST(DurableStoreTest, UniverseMismatchAndMissingFilesAreReported) {
  const std::string dir = TempDirFor("store_neg");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  DurableStoreOptions options;
  options.records_per_segment = 4;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
    ASSERT_TRUE(created.ok());
  }
  // Wrong universe: a configuration error, not corruption.
  core::Result<DurableStore> wrong_n =
      DurableStore::Open(dir, *program->input_vocabulary(), 6, options);
  ASSERT_FALSE(wrong_n.ok());
  EXPECT_EQ(wrong_n.status().code(), core::StatusCode::kError);

  // A manifest-referenced file missing is corruption (the manifest is only
  // ever written after its referents are durable).
  ASSERT_TRUE(core::RemoveFileDurable(dir + "/full-0.snap").ok());
  core::Result<DurableStore> missing =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), core::StatusCode::kCorruption);
  RemoveTree(dir);
}

TEST(DurableStoreTest, TornActiveSegmentTailIsTruncatedOnOpen) {
  const std::string dir = TempDirFor("store_torn");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 11, 3);
  DurableStoreOptions options;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
    ASSERT_TRUE(created.ok());
    DurableStore store = std::move(created).value();
    for (const Request& request : requests) {
      ASSERT_TRUE(store.Append({&request, 1}).ok());
    }
  }
  // Tear the final record: chop a few bytes off the active segment.
  const std::string seg = dir + "/seg-0.log";
  core::Result<std::string> text = core::ReadFileToString(seg);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(core::TruncateFileDurable(seg, text.value().size() - 3).ok());

  core::Result<DurableStore> opened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  DurableStore store = std::move(opened).value();
  EXPECT_TRUE(store.recovered().torn_tail);
  EXPECT_EQ(store.recovered().replay.size(), requests.size() - 1);
  EXPECT_EQ(store.next_seq(), requests.size() - 1);
  // The torn bytes are physically gone and the sequence resumes cleanly.
  ASSERT_TRUE(store.Append({&requests.back(), 1}).ok());
  EXPECT_EQ(store.next_seq(), requests.size());
  RemoveTree(dir);
}

TEST(DurableStoreTest, NonDurableModeSkipsPerAppendFsync) {
  const std::string dir = TempDirFor("store_nofsync");
  RemoveTree(dir);
  DurableStoreOptions options;
  options.fsync_each_append = false;
  core::Result<DurableStore> created =
      DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
  ASSERT_TRUE(created.ok());
  DurableStore store = std::move(created).value();
  const RequestSequence requests = ReachWorkload(8, 5, 6);
  for (const Request& request : requests) {
    ASSERT_TRUE(store.Append({&request, 1}).ok());
  }
  EXPECT_EQ(store.counters().appends, requests.size());
  EXPECT_EQ(store.counters().fsyncs, 0u);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Hostile bytes: manifest and segment formats (satellite: serialize-fuzz
// extended to the durability formats)
// ---------------------------------------------------------------------------

Manifest SampleManifest() {
  Manifest manifest;
  manifest.program = "reach_u";
  manifest.universe = 8;
  manifest.full_file = "full-8.snap";
  manifest.full_steps = 8;
  manifest.segments.push_back({"seg-8.log", 8});
  manifest.segments.push_back({"seg-12.log", 12});
  return manifest;
}

TEST(DurabilityFuzzTest, ManifestRejectsEverySingleByteCorruption) {
  const std::string clean = FormatManifest(SampleManifest());
  ASSERT_TRUE(ParseManifest(clean).ok());
  for (size_t i = 0; i < clean.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = clean;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      EXPECT_FALSE(ParseManifest(mutated).ok())
          << "byte " << i << " ^ 0x" << std::hex << static_cast<int>(mask)
          << " was silently accepted";
    }
  }
}

TEST(DurabilityFuzzTest, ManifestRejectsEveryTruncation) {
  const std::string clean = FormatManifest(SampleManifest());
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    EXPECT_FALSE(ParseManifest(clean.substr(0, cut)).ok())
        << "truncation at " << cut << " accepted";
  }
}

TEST(DurabilityFuzzTest, ManifestRejectsStructuralDamage) {
  // Checksum-clean but semantically inconsistent manifests must still fail:
  // the parser validates the chain, not just the container.
  //
  // A store that ends in a delta checkpoint (the older two-kind format)
  // carries a `delta` line; it is refused, not half-read.
  const std::string with_delta =
      "program reach_u\nuniverse 8\nfull full-4.snap steps=4\n"
      "delta delta-8.ckpt base=4 steps=8\nseg seg-8.log first=8\nend\n";
  core::Result<Manifest> delta_manifest =
      ParseManifest(relational::WrapChecksummed("manifest", with_delta));
  ASSERT_FALSE(delta_manifest.ok());
  EXPECT_NE(delta_manifest.status().message().find("unrecognized keyword delta"),
            std::string::npos)
      << delta_manifest.status().message();

  Manifest bad_first = SampleManifest();
  bad_first.segments[0].first = 9;  // gap between checkpoint and first segment
  EXPECT_FALSE(ParseManifest(FormatManifest(bad_first)).ok());

  Manifest bad_order = SampleManifest();
  std::swap(bad_order.segments[0], bad_order.segments[1]);  // descending chain
  EXPECT_FALSE(ParseManifest(FormatManifest(bad_order)).ok());

  Manifest traversal = SampleManifest();
  traversal.full_file = "../full-8.snap";  // escape the store directory
  EXPECT_FALSE(ParseManifest(FormatManifest(traversal)).ok());
}

/// The segment contract under mutation: any accepted parse is a clean
/// PREFIX of the original records — interior damage is an error, and only
/// the final record may be dropped (torn tail). Altered or reordered
/// records are never silently replayed.
TEST(DurabilityFuzzTest, SegmentMutationsNeverYieldAlteredRecords) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 13, 4);
  const uint64_t first = 5;
  std::string clean = SegmentHeader(first);
  for (size_t i = 0; i < requests.size(); ++i) {
    clean += FormatJournalRecord(first + i, requests[i]);
  }
  core::Result<SegmentParse> base = ParseSegment(clean, *vocab, 8, first);
  ASSERT_TRUE(base.ok()) << base.status().message();
  ASSERT_EQ(base.value().requests.size(), requests.size());

  for (size_t i = 0; i < clean.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = clean;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      core::Result<SegmentParse> parsed = ParseSegment(mutated, *vocab, 8, first);
      if (!parsed.ok()) continue;
      const RequestSequence& got = parsed.value().requests;
      ASSERT_LE(got.size(), requests.size())
          << "byte " << i << ": mutation conjured extra records";
      ASSERT_LT(got.size(), requests.size())
          << "byte " << i << " ^ 0x" << std::hex << static_cast<int>(mask)
          << ": a mutated segment parsed to the full record set";
      EXPECT_TRUE(parsed.value().torn_tail)
          << "byte " << i << ": records were dropped without torn_tail";
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j], requests[j])
            << "byte " << i << ": accepted record " << j << " was altered";
      }
    }
  }
}

TEST(DurabilityFuzzTest, SegmentTruncationsOnlyLoseTheTail) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 17, 4);
  std::string clean = SegmentHeader(0);
  for (size_t i = 0; i < requests.size(); ++i) {
    clean += FormatJournalRecord(i, requests[i]);
  }
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    core::Result<SegmentParse> parsed =
        ParseSegment(clean.substr(0, cut), *vocab, 8, 0);
    if (!parsed.ok()) continue;
    const RequestSequence& got = parsed.value().requests;
    ASSERT_LE(got.size(), requests.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j], requests[j]) << "cut " << cut << " altered record " << j;
    }
    // Anything short of the full byte count lost records or tore the tail.
    EXPECT_TRUE(got.size() < requests.size() || cut == clean.size());
  }
}

TEST(DurabilityFuzzTest, SegmentInteriorLineDamageIsCorruption) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 19, 5);
  std::string clean = SegmentHeader(0);
  for (size_t i = 0; i < requests.size(); ++i) {
    clean += FormatJournalRecord(i, requests[i]);
  }
  core::FaultInjector faults(23);
  for (int trial = 0; trial < 40; ++trial) {
    std::string damaged = clean;
    const std::string what =
        trial % 2 == 0 ? faults.DropLine(&damaged) : faults.DuplicateLine(&damaged);
    if (what.empty()) continue;
    core::Result<SegmentParse> parsed = ParseSegment(damaged, *vocab, 8, 0);
    // An INTERIOR gap or repeat is unrecoverable corruption. Damage at the
    // very end (the final record dropped, or repeated as a tail that gets
    // torn off) may pass, but only ever as an unaltered prefix.
    if (parsed.ok()) {
      const RequestSequence& got = parsed.value().requests;
      ASSERT_LE(got.size(), requests.size()) << what;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j], requests[j]) << what << ": record " << j << " altered";
      }
    }
  }
}

TEST(DurabilityFuzzTest, CorruptManifestFailsOpenNotSilentReplay) {
  const std::string dir = TempDirFor("fuzz_open");
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 29, 3);
  core::FaultInjector faults(31);
  for (int trial = 0; trial < 24; ++trial) {
    RemoveTree(dir);
    {
      core::Result<DurableStore> created =
          DurableStore::Create(dir, "reach_u", 8, "full@0", 0, {});
      ASSERT_TRUE(created.ok());
      DurableStore store = std::move(created).value();
      for (const Request& request : requests) {
        ASSERT_TRUE(store.Append({&request, 1}).ok());
      }
    }
    core::Result<std::string> manifest =
        core::ReadFileToString(dir + "/MANIFEST");
    ASSERT_TRUE(manifest.ok());
    std::string damaged = manifest.value();
    if (trial % 2 == 0) {
      faults.FlipByte(&damaged);
    } else {
      faults.TruncateTail(&damaged);
    }
    ASSERT_TRUE(core::AtomicWriteFile(dir + "/MANIFEST", damaged).ok());
    core::Result<DurableStore> opened =
        DurableStore::Open(dir, *program->input_vocabulary(), 8, {});
    ASSERT_FALSE(opened.ok()) << "trial " << trial
                              << ": damaged manifest opened cleanly";
    EXPECT_EQ(opened.status().code(), core::StatusCode::kCorruption);
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// GuardedEngine::AttachDurability / Compact
// ---------------------------------------------------------------------------

GuardedEngineOptions PlainOptions() {
  GuardedEngineOptions options;
  options.check_every = 0;
  return options;
}

TEST(AttachDurabilityTest, ReviveIsBitIdenticalWithBoundedReplay) {
  const std::string dir = TempDirFor("attach_rt");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 41, 30);
  DurableStoreOptions durability;
  durability.records_per_segment = 8;

  GuardedEngine first(program, 8, programs::ReachUOracle,
                      programs::ReachUInvariant, PlainOptions());
  ASSERT_TRUE(first.AttachDurability(dir, durability).ok());
  for (const Request& request : requests) {
    ASSERT_TRUE(first.Apply(request).ok());
  }
  ASSERT_GT(first.durable_store()->counters().full_snapshots,
            1u /* more than the Create-time one */);

  GuardedEngine second(program, 8, programs::ReachUOracle,
                       programs::ReachUInvariant, PlainOptions());
  ASSERT_TRUE(second.AttachDurability(dir, durability).ok());
  EXPECT_EQ(second.engine().data(), first.engine().data());
  EXPECT_EQ(relational::WriteStructure(second.engine().data()),
            relational::WriteStructure(first.engine().data()));
  EXPECT_EQ(second.input(), first.input());
  EXPECT_EQ(second.engine().stats().requests, requests.size());
  EXPECT_LE(second.recovery_stats().replayed_on_recovery,
            durability.records_per_segment);
  EXPECT_TRUE(second.CheckNow().ok());

  // The revived session keeps going: appends, checkpoints, revives again.
  const RequestSequence more = ReachWorkload(8, 43, 12);
  for (const Request& request : more) {
    ASSERT_TRUE(second.Apply(request).ok());
  }
  GuardedEngine third(program, 8, programs::ReachUOracle,
                      programs::ReachUInvariant, PlainOptions());
  ASSERT_TRUE(third.AttachDurability(dir, durability).ok());
  EXPECT_EQ(third.engine().data(), second.engine().data());
  EXPECT_EQ(third.engine().stats().requests, requests.size() + more.size());
  RemoveTree(dir);
}

TEST(AttachDurabilityTest, CompactConsolidatesToOneFullSnapshot) {
  const std::string dir = TempDirFor("attach_compact");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  // 22 requests at interval 4: checkpoints at 4..20, two records pending.
  const RequestSequence requests = ReachWorkload(8, 47, 22);
  DurableStoreOptions durability;
  durability.records_per_segment = 4;

  GuardedEngine guarded(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(guarded.AttachDurability(dir, durability).ok());
  for (const Request& request : requests) {
    ASSERT_TRUE(guarded.Apply(request).ok());
  }
  const DurableStore* store = guarded.durable_store();
  ASSERT_NE(store, nullptr);
  ASSERT_GT(store->counters().full_snapshots, 1u);
  ASSERT_EQ(store->active_records(), 2u);

  ASSERT_TRUE(guarded.Compact().ok());
  EXPECT_EQ(store->active_records(), 0u);
  EXPECT_EQ(store->manifest().segments.size(), 1u);
  EXPECT_EQ(store->manifest().full_steps, requests.size());
  // Directory = MANIFEST + the snapshot + one (empty) active segment.
  EXPECT_EQ(SortedNames(dir),
            (std::vector<std::string>{"MANIFEST", "full-22.snap", "seg-22.log"}));

  // A post-compact revival replays nothing.
  GuardedEngine revived(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(revived.AttachDurability(dir, durability).ok());
  EXPECT_EQ(revived.engine().data(), guarded.engine().data());
  EXPECT_EQ(revived.recovery_stats().replayed_on_recovery, 0u);
  RemoveTree(dir);
}

TEST(AttachDurabilityTest, GuardsRejectMisuse) {
  const std::string dir = TempDirFor("attach_guard");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();

  // Durability must be attached to a FRESH wrapper.
  GuardedEngine used(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(used.Apply(Request::Insert("E", {0, 1})).ok());
  EXPECT_FALSE(used.AttachDurability(dir).ok());

  // A wrapper attaches at most one store.
  GuardedEngine fresh(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(fresh.AttachDurability(dir).ok());
  EXPECT_FALSE(fresh.AttachDurability(dir).ok());  // double attach

  // A store created by one program cannot revive another.
  GuardedEngine parity(programs::MakeParityProgram(), 8, nullptr, nullptr,
                       PlainOptions());
  core::Status mismatch = parity.AttachDurability(dir);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("reach_u"), std::string::npos);
  RemoveTree(dir);
}

}  // namespace
}  // namespace dynfo::dyn
