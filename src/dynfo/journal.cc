#include "dynfo/journal.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/text.h"
#include "dynfo/wire.h"
#include "relational/serialize.h"

namespace dynfo::dyn {

namespace {

using relational::Request;
using relational::RequestKind;
using relational::Vocabulary;

/// "ins E 1 2" / "del E 1 2" / "set s 3" — the request part of a record
/// body, shared by plain records and the sub-records of a batch line.
std::string RequestBody(const Request& request) {
  std::ostringstream body;
  switch (request.kind) {
    case RequestKind::kInsert:
      body << "ins " << request.target;
      for (int i = 0; i < request.tuple.size(); ++i) body << " " << request.tuple[i];
      break;
    case RequestKind::kDelete:
      body << "del " << request.target;
      for (int i = 0; i < request.tuple.size(); ++i) body << " " << request.tuple[i];
      break;
    case RequestKind::kSetConstant:
      body << "set " << request.target << " " << request.value;
      break;
  }
  return body.str();
}

std::string RecordBody(uint64_t seq, const Request& request) {
  return std::to_string(seq) + " " + RequestBody(request);
}

/// Parses one request ("ins E 1 2" / "del E 1 2" / "set s 3") with the
/// grammar the server and the CLI share, then validates it against the
/// input vocabulary and universe.
bool ParseRequest(const std::vector<std::string>& words, const Vocabulary& input,
                  size_t universe_size, Request* out, std::string* error) {
  if (words.empty()) {
    *error = "empty request";
    return false;
  }
  if (!wire::ParseMutation(words, out, error)) {
    if (error->empty()) *error = "unknown request keyword " + words[0];
    return false;
  }
  const core::Status valid = relational::ValidateRequest(input, universe_size, *out);
  if (!valid.ok()) *error = valid.message();
  return valid.ok();
}

/// Parses one record line (without trailing '\n'), appending its request(s)
/// to `out` — one for a plain record, `count` for a batch record (their
/// sequence numbers occupy [expected_seq, expected_seq + count)). Appends
/// nothing on failure: *error is a description and the return is false.
bool ParseRecord(const std::string& line, uint64_t expected_seq,
                 const Vocabulary& input, size_t universe_size,
                 relational::RequestSequence* out, std::string* error) {
  const size_t marker = line.rfind(" c=");
  if (marker == std::string::npos) {
    *error = "record missing checksum";
    return false;
  }
  const std::string body = line.substr(0, marker);
  uint64_t recorded_sum = 0;
  if (!core::ParseHexU64(line.substr(marker + 3), &recorded_sum)) {
    *error = "record checksum malformed";
    return false;
  }
  if (core::Fnv1a64(body) != recorded_sum) {
    *error = "record checksum mismatch";
    return false;
  }

  // "<seq> <request>", or a group commit "<seq> batch <count> | <request> |
  // <request> ...".
  std::vector<std::string> parts;
  for (size_t start = 0;;) {
    const size_t bar = body.find(" | ", start);
    parts.push_back(body.substr(start, bar == std::string::npos ? bar : bar - start));
    if (bar == std::string::npos) break;
    start = bar + 3;
  }
  std::vector<std::string> head = wire::SplitWords(parts[0]);
  uint64_t seq = 0;
  if (head.empty() || !core::ParseU64(head[0], &seq)) {
    *error = "bad sequence number";
    return false;
  }
  if (seq != expected_seq) {
    *error = "sequence broken (expected " + std::to_string(expected_seq) + ", found " +
             std::to_string(seq) + "): a record was dropped or duplicated";
    return false;
  }
  head.erase(head.begin());
  std::vector<std::vector<std::string>> requests;
  if (!head.empty() && head[0] == "batch") {
    uint64_t count = 0;
    if (head.size() != 2 || !core::ParseU64(head[1], &count) || count == 0 ||
        count != parts.size() - 1) {
      *error = "batch record with bad count";
      return false;
    }
    for (size_t i = 1; i < parts.size(); ++i) {
      requests.push_back(wire::SplitWords(parts[i]));
    }
  } else if (parts.size() == 1) {
    requests.push_back(std::move(head));
  } else {
    *error = "request separator in a plain record";
    return false;
  }
  relational::RequestSequence parsed(requests.size(), Request::SetConstant("", 0));
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!ParseRequest(requests[i], input, universe_size, &parsed[i], error)) return false;
  }
  out->insert(out->end(), parsed.begin(), parsed.end());
  return true;
}

}  // namespace

std::string FormatJournalRecord(uint64_t seq, const Request& request) {
  const std::string body = RecordBody(seq, request);
  return body + " c=" + core::HexU64(core::Fnv1a64(body)) + "\n";
}

std::string FormatBatchRecord(uint64_t first_seq,
                              std::span<const Request> requests) {
  DYNFO_CHECK(!requests.empty()) << "empty batch record";
  std::ostringstream body;
  body << first_seq << " batch " << requests.size();
  for (const Request& request : requests) {
    body << " | " << RequestBody(request);
  }
  return body.str() + " c=" + core::HexU64(core::Fnv1a64(body.str())) + "\n";
}

namespace {

constexpr const char kManifestName[] = "MANIFEST";

std::string FullName(uint64_t steps) {
  return "full-" + std::to_string(steps) + ".snap";
}
std::string DeltaName(uint64_t steps) {
  return "delta-" + std::to_string(steps) + ".ckpt";
}
std::string SegName(uint64_t first) {
  return "seg-" + std::to_string(first) + ".log";
}

/// Whether `name` is one of the store's own artifacts — the only files
/// Create/Open will ever delete during garbage collection.
bool IsStoreFile(const std::string& name) {
  if (name == kManifestName) return true;
  std::string stem = name;
  const std::string tmp_suffix = ".tmp";
  if (stem.size() > tmp_suffix.size() &&
      stem.compare(stem.size() - tmp_suffix.size(), tmp_suffix.size(),
                   tmp_suffix) == 0) {
    stem.erase(stem.size() - tmp_suffix.size());
    if (stem == kManifestName) return true;
  }
  return stem.rfind("full-", 0) == 0 || stem.rfind("delta-", 0) == 0 ||
         stem.rfind("seg-", 0) == 0;
}

/// A manifest-referenced file name must be a plain name the store itself
/// generates — belt-and-braces against a (checksum-evading) hostile
/// manifest steering deletes or reads outside the directory.
bool ValidStoreFileName(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos &&
         name != "." && name != ".." && IsStoreFile(name) &&
         name != kManifestName;
}

}  // namespace

std::string SegmentHeader(uint64_t first_seq) {
  return "dynfo-segment v1 first=" + std::to_string(first_seq) + "\n";
}

core::Result<SegmentParse> ParseSegment(const std::string& text,
                                        const Vocabulary& input,
                                        size_t universe_size,
                                        uint64_t expected_first) {
  SegmentParse out;
  const std::string header = SegmentHeader(expected_first);
  if (text.size() < header.size()) {
    // A crash can kill the process between creating the segment and
    // flushing its header; any prefix of the header is an empty segment,
    // torn.
    if (header.compare(0, text.size(), text) == 0) {
      out.torn_tail = !text.empty();
      return out;
    }
    return core::Status::Error("not a dynfo segment");
  }
  if (text.compare(0, header.size(), header) != 0) {
    return core::Status::Error("segment header mismatch (expected first=" +
                               std::to_string(expected_first) + ")");
  }
  out.valid_bytes = header.size();

  size_t pos = header.size();
  size_t line_number = 1;
  while (pos < text.size()) {
    ++line_number;
    const size_t nl = text.find('\n', pos);
    const bool complete = nl != std::string::npos;
    const std::string line =
        complete ? text.substr(pos, nl - pos) : text.substr(pos);
    std::string error = "incomplete record (no newline)";
    const bool parsed =
        complete && ParseRecord(line, expected_first + out.requests.size(),
                                input, universe_size, &out.requests, &error);
    if (!parsed) {
      const bool is_final_line = !complete || nl + 1 >= text.size();
      if (is_final_line) {
        out.torn_tail = true;
        return out;
      }
      return core::Status::Error("segment line " + std::to_string(line_number) +
                                 ": " + error);
    }
    pos = nl + 1;
    out.valid_bytes = pos;
  }
  return out;
}

std::string FormatManifest(const Manifest& manifest) {
  std::ostringstream payload;
  payload << "program " << manifest.program << "\n";
  payload << "universe " << manifest.universe << "\n";
  payload << "full " << manifest.full_file << " steps=" << manifest.full_steps
          << "\n";
  if (!manifest.delta_file.empty()) {
    payload << "delta " << manifest.delta_file << " base=" << manifest.delta_base
            << " steps=" << manifest.delta_steps << "\n";
  }
  for (const Manifest::Segment& seg : manifest.segments) {
    payload << "seg " << seg.file << " first=" << seg.first << "\n";
  }
  payload << "end\n";
  return relational::WrapChecksummed("manifest", payload.str());
}

core::Result<Manifest> ParseManifest(const std::string& text) {
  core::Result<std::string> payload =
      relational::UnwrapChecksummed("manifest", text);
  if (!payload.ok()) return payload.status();

  auto err = [](const std::string& message) {
    return core::Status::Error("manifest: " + message);
  };
  auto field = [](const std::string& token, const char* key, uint64_t* out) {
    const std::string prefix = std::string(key) + "=";
    return token.rfind(prefix, 0) == 0 &&
           core::ParseU64(token.substr(prefix.size()), out);
  };

  Manifest manifest;
  std::istringstream in(payload.value());
  std::string line;
  bool saw_program = false, saw_universe = false, saw_full = false,
       saw_delta = false, saw_end = false, saw_seg = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string keyword;
    if (!(words >> keyword)) continue;
    if (saw_end) return err("content after 'end'");
    std::string extra;
    if (keyword == "program") {
      if (saw_program || !(words >> manifest.program) || (words >> extra)) {
        return err("bad 'program' line");
      }
      saw_program = true;
    } else if (keyword == "universe") {
      std::string token;
      if (saw_universe || !saw_program || !(words >> token) ||
          !core::ParseU64(token, &manifest.universe) ||
          manifest.universe == 0 || (words >> extra)) {
        return err("bad 'universe' line");
      }
      saw_universe = true;
    } else if (keyword == "full") {
      std::string token;
      if (saw_full || !saw_universe || !(words >> manifest.full_file >> token) ||
          !field(token, "steps", &manifest.full_steps) || (words >> extra) ||
          !ValidStoreFileName(manifest.full_file)) {
        return err("bad 'full' line");
      }
      saw_full = true;
    } else if (keyword == "delta") {
      std::string base_token, steps_token;
      if (saw_delta || saw_seg || !saw_full ||
          !(words >> manifest.delta_file >> base_token >> steps_token) ||
          !field(base_token, "base", &manifest.delta_base) ||
          !field(steps_token, "steps", &manifest.delta_steps) ||
          (words >> extra) || !ValidStoreFileName(manifest.delta_file)) {
        return err("bad 'delta' line");
      }
      if (manifest.delta_base != manifest.full_steps ||
          manifest.delta_steps < manifest.delta_base) {
        return err("delta checkpoint is not chained on the full snapshot");
      }
      saw_delta = true;
    } else if (keyword == "seg") {
      Manifest::Segment seg;
      std::string token;
      if (!saw_full || !(words >> seg.file >> token) ||
          !field(token, "first", &seg.first) || (words >> extra) ||
          !ValidStoreFileName(seg.file)) {
        return err("bad 'seg' line");
      }
      if (manifest.segments.empty()) {
        if (seg.first != manifest.checkpoint_steps()) {
          return err("segment chain does not start at the checkpoint");
        }
      } else if (seg.first <= manifest.segments.back().first) {
        return err("segment chain is not ascending");
      }
      manifest.segments.push_back(std::move(seg));
      saw_seg = true;
    } else if (keyword == "end") {
      if (words >> extra) return err("trailing tokens after end");
      saw_end = true;
    } else {
      return err("unrecognized keyword " + keyword);
    }
  }
  if (!saw_program || !saw_universe || !saw_full) {
    return err("incomplete (program/universe/full required)");
  }
  if (!saw_end) return err("missing 'end'");
  if (manifest.segments.empty()) return err("no live segment");
  return manifest;
}

bool DurableStore::Exists(const std::string& dir) {
  return core::FileExists(dir + "/" + kManifestName);
}

core::Result<DurableStore> DurableStore::Create(const std::string& dir,
                                                const std::string& program,
                                                size_t universe_size,
                                                const std::string& full_blob,
                                                uint64_t steps,
                                                DurableStoreOptions options) {
  DYNFO_CHECK(options.records_per_segment > 0) << "zero checkpoint interval";
  core::Status status = core::EnsureDir(dir);
  if (!status.ok()) return status;
  DYNFO_CHECK(!core::FileExists(dir + "/" + kManifestName))
      << "Create on a directory that already has a manifest; use Open";

  // No manifest means nothing in the directory is authoritative; sweep any
  // leftovers from a run that died before its first manifest write.
  core::Result<std::vector<std::string>> entries = core::ListDir(dir);
  if (!entries.ok()) return entries.status();
  for (const std::string& name : entries.value()) {
    if (!IsStoreFile(name)) continue;
    status = core::RemoveFileDurable(dir + "/" + name);
    if (!status.ok()) return status;
  }

  DurableStore store;
  store.dir_ = dir;
  store.options_ = options;

  const std::string full_name = FullName(steps);
  status = core::AtomicWriteFile(dir + "/" + full_name, full_blob);
  if (!status.ok()) return status;

  const std::string seg_name = SegName(steps);
  core::Result<core::AppendFile> seg = core::AppendFile::Open(dir + "/" + seg_name);
  if (!seg.ok()) return seg.status();
  store.active_ = std::move(seg).value();
  status = store.active_->Append(SegmentHeader(steps));
  if (status.ok()) status = store.active_->Fsync();
  if (!status.ok()) return status;

  store.manifest_.program = program;
  store.manifest_.universe = universe_size;
  store.manifest_.full_file = full_name;
  store.manifest_.full_steps = steps;
  store.manifest_.segments.push_back({seg_name, steps});
  status = core::AtomicWriteFile(dir + "/" + kManifestName,
                                 FormatManifest(store.manifest_));
  if (!status.ok()) return status;

  store.active_first_ = steps;
  store.next_seq_ = steps;
  store.recovered_.full_blob = full_blob;
  store.recovered_.checkpoint_steps = steps;
  store.counters_.full_snapshots = 1;
  return store;
}

core::Result<DurableStore> DurableStore::Open(const std::string& dir,
                                              const Vocabulary& input,
                                              size_t universe_size,
                                              DurableStoreOptions options) {
  DYNFO_CHECK(options.records_per_segment > 0) << "zero checkpoint interval";
  const std::string manifest_path = dir + "/" + kManifestName;
  if (!core::FileExists(manifest_path)) {
    return core::Status::Error("durable store " + dir + ": no manifest");
  }
  core::Result<std::string> manifest_text = core::ReadFileToString(manifest_path);
  if (!manifest_text.ok()) return manifest_text.status();
  core::Result<Manifest> parsed = ParseManifest(manifest_text.value());
  if (!parsed.ok()) {
    return core::Status::Corruption("durable store " + dir + ": " +
                                    parsed.status().message());
  }

  DurableStore store;
  store.dir_ = dir;
  store.options_ = options;
  store.manifest_ = std::move(parsed).value();
  const Manifest& manifest = store.manifest_;
  if (manifest.universe != universe_size) {
    return core::Status::Error(
        "durable store " + dir + " is for universe size " +
        std::to_string(manifest.universe) + ", engine runs " +
        std::to_string(universe_size));
  }

  // Checkpoint blobs. A manifest-referenced file is always durable (its
  // write completed, dir fsync included, before the manifest named it), so
  // absence is corruption, not a crash artifact.
  core::Result<std::string> full =
      core::ReadFileToString(dir + "/" + manifest.full_file);
  if (!full.ok()) {
    return core::Status::Corruption("durable store " + dir +
                                    ": manifest references missing snapshot " +
                                    manifest.full_file);
  }
  store.recovered_.full_blob = std::move(full).value();
  if (!manifest.delta_file.empty()) {
    core::Result<std::string> delta =
        core::ReadFileToString(dir + "/" + manifest.delta_file);
    if (!delta.ok()) {
      return core::Status::Corruption(
          "durable store " + dir + ": manifest references missing checkpoint " +
          manifest.delta_file);
    }
    store.recovered_.delta_blob = std::move(delta).value();
  }
  store.recovered_.checkpoint_steps = manifest.checkpoint_steps();

  // Replay the segment chain. Only the FINAL segment may carry a torn tail
  // (the crash-mid-append shape); torn interior segments mean records were
  // lost in the middle of the history — corruption.
  uint64_t expected_first = manifest.checkpoint_steps();
  size_t last_valid_bytes = 0;
  bool last_torn = false;
  for (size_t i = 0; i < manifest.segments.size(); ++i) {
    const Manifest::Segment& seg = manifest.segments[i];
    if (seg.first != expected_first) {
      return core::Status::Corruption(
          "durable store " + dir + ": segment " + seg.file + " starts at " +
          std::to_string(seg.first) + ", expected " +
          std::to_string(expected_first));
    }
    core::Result<std::string> text = core::ReadFileToString(dir + "/" + seg.file);
    if (!text.ok()) {
      return core::Status::Corruption("durable store " + dir +
                                      ": manifest references missing segment " +
                                      seg.file);
    }
    core::Result<SegmentParse> segment =
        ParseSegment(text.value(), input, universe_size, expected_first);
    if (!segment.ok()) {
      return core::Status::Corruption("durable store " + dir + ": segment " +
                                      seg.file + ": " +
                                      segment.status().message());
    }
    const bool last = i + 1 == manifest.segments.size();
    if (segment.value().torn_tail && !last) {
      return core::Status::Corruption("durable store " + dir + ": segment " +
                                      seg.file +
                                      " is torn but is not the final segment");
    }
    for (const Request& request : segment.value().requests) {
      store.recovered_.replay.push_back(request);
    }
    expected_first += segment.value().requests.size();
    if (last) {
      last_valid_bytes = segment.value().valid_bytes;
      last_torn = segment.value().torn_tail;
      store.active_records_ = segment.value().requests.size();
    }
  }
  store.recovered_.segments_replayed = manifest.segments.size();
  store.recovered_.torn_tail = last_torn;
  store.next_seq_ = expected_first;
  store.active_first_ = manifest.segments.back().first;

  // Drop the torn tail durably, then reopen the active segment for append
  // (rewriting the header if the tear consumed it).
  const std::string active_path = dir + "/" + manifest.segments.back().file;
  if (last_torn) {
    core::Status status = core::TruncateFileDurable(
        active_path, last_valid_bytes == 0 ? 0 : last_valid_bytes);
    if (!status.ok()) return status;
  }
  core::Result<core::AppendFile> active = core::AppendFile::Open(active_path);
  if (!active.ok()) return active.status();
  store.active_ = std::move(active).value();
  if (last_valid_bytes == 0) {
    core::Status status =
        store.active_->Append(SegmentHeader(store.active_first_));
    if (status.ok()) status = store.active_->Fsync();
    if (!status.ok()) return status;
  }

  // Garbage-collect orphans: store-pattern files the manifest does not
  // reference — temp files and checkpoints/segments a crash left behind.
  core::Result<std::vector<std::string>> entries = core::ListDir(dir);
  if (!entries.ok()) return entries.status();
  for (const std::string& name : entries.value()) {
    if (!IsStoreFile(name) || name == kManifestName) continue;
    bool referenced = name == manifest.full_file || name == manifest.delta_file;
    for (const Manifest::Segment& seg : manifest.segments) {
      referenced = referenced || name == seg.file;
    }
    if (referenced) continue;
    core::Status status = core::RemoveFileDurable(dir + "/" + name);
    if (!status.ok()) return status;
    ++store.counters_.files_collected;
  }

  // Restore the consolidation cadence (each delta checkpoint covers one
  // segment's worth of records, so the ratio recovers the count).
  if (!manifest.delta_file.empty()) {
    const uint64_t covered = manifest.delta_steps - manifest.full_steps;
    store.deltas_since_full_ =
        std::max<uint64_t>(1, covered / options.records_per_segment);
  }
  return store;
}

core::Status DurableStore::Append(std::span<const Request> requests) {
  if (requests.empty()) return core::Status();
  DYNFO_CHECK(active_.has_value()) << "Append on a moved-from DurableStore";
  const bool batch = requests.size() > 1;
  const std::string record = batch ? FormatBatchRecord(next_seq_, requests)
                                   : FormatJournalRecord(next_seq_, requests[0]);
  core::Status status = active_->Append(record);
  if (!status.ok()) return status;
  if (options_.fsync_each_append) {
    status = active_->Fsync();
    if (!status.ok()) return status;
    ++counters_.fsyncs;
  }
  next_seq_ += requests.size();
  active_records_ += requests.size();
  counters_.appends += requests.size();
  if (batch) ++counters_.batch_appends;
  counters_.bytes_appended += record.size();
  return core::Status();
}

core::Status DurableStore::Checkpoint(const std::string& blob, bool is_full) {
  DYNFO_CHECK(active_.has_value()) << "Checkpoint on a moved-from DurableStore";
  const uint64_t steps = next_seq_;
  const std::string name = is_full ? FullName(steps) : DeltaName(steps);

  // 1. The checkpoint blob, durably, before anything references it.
  core::Status status = core::AtomicWriteFile(dir_ + "/" + name, blob);
  if (!status.ok()) return status;

  // 2. A fresh segment (unless the current one is still empty — a forced
  //    checkpoint with no new records keeps it). Created + dir-fsynced
  //    before the manifest may name it.
  const std::string seg_name = SegName(steps);
  std::optional<core::AppendFile> fresh;
  const bool rotate = steps != active_first_;
  if (rotate) {
    core::Result<core::AppendFile> seg =
        core::AppendFile::Open(dir_ + "/" + seg_name);
    if (!seg.ok()) return seg.status();
    fresh = std::move(seg).value();
    status = fresh->Append(SegmentHeader(steps));
    if (status.ok()) status = fresh->Fsync();
    if (!status.ok()) return status;
  }

  // 3. Swap the manifest — the commit point.
  Manifest next = manifest_;
  if (is_full) {
    next.full_file = name;
    next.full_steps = steps;
    next.delta_file.clear();
    next.delta_base = 0;
    next.delta_steps = 0;
  } else {
    next.delta_file = name;
    next.delta_base = next.full_steps;
    next.delta_steps = steps;
  }
  next.segments.clear();
  next.segments.push_back({rotate ? seg_name : SegName(active_first_),
                           steps});
  status = core::AtomicWriteFile(dir_ + "/" + kManifestName,
                                 FormatManifest(next));
  if (!status.ok()) return status;

  // 4. Commit in memory, then collect what the new manifest dropped. A
  //    failure from here on leaves orphans for the next Open, never an
  //    inconsistent store.
  std::vector<std::string> dropped;
  auto referenced = [&next](const std::string& file) {
    if (file == next.full_file || file == next.delta_file) return true;
    for (const Manifest::Segment& seg : next.segments) {
      if (file == seg.file) return true;
    }
    return false;
  };
  if (!referenced(manifest_.full_file)) dropped.push_back(manifest_.full_file);
  if (!manifest_.delta_file.empty() && !referenced(manifest_.delta_file)) {
    dropped.push_back(manifest_.delta_file);
  }
  for (const Manifest::Segment& seg : manifest_.segments) {
    if (!referenced(seg.file)) dropped.push_back(seg.file);
  }
  manifest_ = std::move(next);
  if (rotate) {
    active_ = std::move(fresh);
    active_first_ = steps;
    ++counters_.segments_rotated;
  }
  active_records_ = 0;
  if (is_full) {
    deltas_since_full_ = 0;
    ++counters_.full_snapshots;
  } else {
    ++deltas_since_full_;
    ++counters_.checkpoints;
  }
  for (const std::string& file : dropped) {
    status = core::RemoveFileDurable(dir_ + "/" + file);
    if (!status.ok()) return status;
    ++counters_.files_collected;
  }
  return core::Status();
}

}  // namespace dynfo::dyn
