/// \file journal.h
/// Crash-consistent durable storage for applied requests: a segmented
/// journal with full-snapshot checkpoints (DESIGN.md §12).
///
/// The auxiliary relations are *live state* accumulated over an unbounded
/// request stream, so a production engine must be reconstructible after a
/// kill at any point. Records go into fixed-size *segments*; every segment
/// rotation writes a *checkpoint* — a full snapshot of the session — after
/// which the previous snapshot and the covered segment are
/// garbage-collected. A checksummed MANIFEST names the authoritative file
/// set; it is replaced atomically (core/durable_io.h), so at every instant
/// exactly one manifest governs and recovery is one snapshot plus at most
/// one segment of replay: O(checkpoint interval), not O(history).
///
/// Segment format (one record per line, each written with a single write):
///   dynfo-segment v1 first=<seq>
///   <seq> ins <relation> <e1> <e2> ... c=<16 hex>
///   <seq> del <relation> <e1> <e2> ... c=<16 hex>
///   <seq> set <constant> <value> c=<16 hex>
///   <seq> batch <count> | ins <relation> <e...> | set <constant> <v> ... c=<16 hex>
///
/// Each record carries its absolute sequence number and an FNV-1a checksum
/// of its body. A `batch` record is one group-committed line holding
/// `count` sub-requests; it occupies sequence numbers [seq, seq+count), so
/// a crash can only drop the WHOLE batch, never a prefix of it. The reader
/// accepts the longest clean prefix: a damaged or incomplete FINAL record
/// is a torn tail (the expected result of a crash mid-append) and is
/// dropped with `torn_tail` set; any damage BEFORE the final record — a
/// checksum mismatch, a sequence gap (dropped record), a repeated sequence
/// number (duplicated record) — is unrecoverable corruption and yields an
/// error Status. Every parsed request is validated against the input
/// vocabulary and universe size, so replaying a parsed segment can never
/// CHECK-crash the engine.

#ifndef DYNFO_DYNFO_JOURNAL_H_
#define DYNFO_DYNFO_JOURNAL_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/status.h"
#include "relational/request.h"
#include "relational/vocabulary.h"

namespace dynfo::dyn {

/// One record line (terminated by '\n'), checksum included.
std::string FormatJournalRecord(uint64_t seq, const relational::Request& request);

/// One group-commit batch record line holding every request in `requests`
/// (which must be non-empty), occupying sequence numbers
/// [first_seq, first_seq + requests.size()).
std::string FormatBatchRecord(uint64_t first_seq,
                              std::span<const relational::Request> requests);

/// "dynfo-segment v1 first=<seq>\n" — the first line of every segment.
std::string SegmentHeader(uint64_t first_seq);

struct SegmentParse {
  relational::RequestSequence requests;  ///< seqs first .. first+k-1
  size_t valid_bytes = 0;  ///< byte length of the clean prefix (incl. header)
  bool torn_tail = false;  ///< a damaged/incomplete final record was dropped
};

/// Parses one segment, validating the header's first-sequence against
/// `expected_first` and every record against the input vocabulary. See the
/// file comment for the torn-tail vs. corruption contract.
core::Result<SegmentParse> ParseSegment(const std::string& text,
                                        const relational::Vocabulary& input,
                                        size_t universe_size,
                                        uint64_t expected_first);

/// The authoritative file set of a durable directory. Payload lines, in
/// order, wrapped by WrapChecksummed("manifest", ...):
///   program <name>
///   universe <n>
///   full <file> steps=<s>
///   seg <file> first=<k>                (the live chain, ascending)
///   end
struct Manifest {
  std::string program;
  uint64_t universe = 0;
  std::string full_file;
  uint64_t full_steps = 0;  ///< steps the snapshot covers; replay starts here
  struct Segment {
    std::string file;
    uint64_t first = 0;
  };
  std::vector<Segment> segments;
};

/// Serializes `manifest` including the checksummed container.
std::string FormatManifest(const Manifest& manifest);

/// Parses and validates a manifest blob: container checksum, field syntax,
/// segment chain ascending and starting at the snapshot's step. Any
/// single-byte damage is an error, and so is any keyword outside the
/// format above.
core::Result<Manifest> ParseManifest(const std::string& text);

struct DurableStoreOptions {
  /// Records per segment — also the checkpoint interval: every rotation
  /// writes a checkpoint covering the finished segment, so recovery replay
  /// is bounded by this many records.
  uint64_t records_per_segment = 64;
  /// fsync(2) each appended record — durable mode. On by default here (the
  /// store exists for power-loss durability); the measured overhead gate
  /// lives in bench_recovery.
  bool fsync_each_append = true;
};

/// What DurableStore::Open recovered from the directory.
struct DurableRecovery {
  std::string full_blob;  ///< contents of the snapshot file
  relational::RequestSequence replay;  ///< records past the snapshot
  uint64_t segments_replayed = 0;
  bool torn_tail = false;  ///< the active segment lost a torn final record
};

/// Directory-backed segmented journal with full-snapshot checkpoints.
/// Layout: MANIFEST (checksummed), full-<steps>.snap, seg-<first>.log. All
/// replacements are atomic; a kill at any I/O boundary leaves a recoverable
/// directory governed by the previous manifest, and Open garbage-collects
/// any orphaned temp/superseded files it finds. After each checkpoint the
/// directory holds exactly MANIFEST, one snapshot and one segment.
/// Single-writer, like the engine it journals for.
class DurableStore {
 public:
  /// Initializes a fresh directory: writes the initial full snapshot
  /// (`full_blob`, opaque to the store, covering `steps` requests), an
  /// empty first segment, and the manifest.
  static core::Result<DurableStore> Create(const std::string& dir,
                                           const std::string& program,
                                           size_t universe_size,
                                           const std::string& full_blob,
                                           uint64_t steps,
                                           DurableStoreOptions options = {});

  /// Opens an existing directory: validates the manifest, loads the
  /// snapshot, replays the segment chain (only the final segment
  /// may have a torn tail, which is truncated), collects orphans, and
  /// reopens the active segment for append.
  static core::Result<DurableStore> Open(const std::string& dir,
                                         const relational::Vocabulary& input,
                                         size_t universe_size,
                                         DurableStoreOptions options = {});

  /// Whether `dir` holds a store (i.e. a manifest — Open vs Create).
  static bool Exists(const std::string& dir);

  DurableStore(DurableStore&&) = default;
  DurableStore& operator=(DurableStore&&) = default;

  /// Appends applied requests to the active segment as ONE record with a
  /// single write and a single fsync (per options), advancing next_seq() by
  /// their count: a plain record for one request, a group-commit `batch`
  /// record for more, so the per-request fsync cost becomes O(1) per batch.
  /// A crash mid-append drops the whole record (single-line torn-tail
  /// contract), never a prefix of a batch. Empty is a no-op. After a true
  /// return of checkpoint_due(), call Checkpoint before further appends to
  /// keep the replay bound; it may overshoot by one batch.
  core::Status Append(std::span<const relational::Request> requests);

  /// The active segment has reached records_per_segment.
  bool checkpoint_due() const {
    return active_records_ >= options_.records_per_segment;
  }

  /// Rotates: durably writes `blob`, a full snapshot covering all
  /// `next_seq()` records, starts a fresh segment, atomically swaps the
  /// manifest, and garbage-collects the files the new manifest no longer
  /// references. A crash at any boundary leaves the previous manifest
  /// governing.
  core::Status Checkpoint(const std::string& blob);

  /// Results of the Open/Create-time recovery.
  const DurableRecovery& recovered() const { return recovered_; }

  uint64_t next_seq() const { return next_seq_; }
  const Manifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }
  const DurableStoreOptions& options() const { return options_; }

  /// Records in the active segment not yet covered by a checkpoint.
  uint64_t active_records() const { return active_records_; }

  struct Counters {
    uint64_t appends = 0;            ///< requests appended (batch members too)
    uint64_t batch_appends = 0;      ///< group-commit batch records written
    uint64_t fsyncs = 0;
    uint64_t bytes_appended = 0;     ///< journal bytes written by appends
    /// Always 0 since every checkpoint is a full snapshot; bench_e2e
    /// still reads it by name next to full_snapshots.
    uint64_t checkpoints = 0;
    uint64_t full_snapshots = 0;     ///< snapshots written, Create's included
    uint64_t segments_rotated = 0;
    uint64_t files_collected = 0;    ///< orphans + superseded files removed
  };
  const Counters& counters() const { return counters_; }

 private:
  DurableStore() = default;

  std::string dir_;
  DurableStoreOptions options_;
  Manifest manifest_;
  std::optional<core::AppendFile> active_;
  uint64_t active_first_ = 0;
  uint64_t active_records_ = 0;
  uint64_t next_seq_ = 0;
  DurableRecovery recovered_;
  Counters counters_;
};

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_JOURNAL_H_
