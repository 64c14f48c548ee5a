/// reach_u_durable: reach_u (Theorem 4.1) on a large sparse graph through
/// GuardedEngine::Apply with AttachDurability on the local disk — one
/// request per call, each append fsynced ("acked => durable"). The store is
/// preloaded by one ApplyBatch during set-up; the edge count is then held at
/// a target (HeldCountChurn), and every update is followed by a reach query.
/// Single thread.
///
/// Sizing: update cost grows with component size, so the graph is kept far
/// below the giant-component threshold (kTargetEdges / kVertices = 1/4, mean
/// degree 1/2). Every 32nd request moves s or t so the query's answer
/// changes over time.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "dynfo/recovery.h"
#include "gen.h"
#include "programs/reach_u.h"
#include "workloads.h"

namespace bench_e2e {
namespace {

using dynfo::dyn::DynProgram;
using dynfo::dyn::Engine;
using dynfo::dyn::GuardedEngine;
using dynfo::dyn::GuardedEngineOptions;
using dynfo::relational::Request;
using dynfo::relational::RequestKind;
using dynfo::relational::RequestSequence;

constexpr uint32_t kVertices = 1024;
constexpr size_t kTargetEdges = 256;
constexpr uint64_t kMoveEndpointEvery = 32;
/// Stretches of an untraced run, each followed by a spare set-up.
constexpr int kChunks = 30;
constexpr int kRevives = 5;
constexpr size_t kExactPrefix = 128;
constexpr size_t kHeldOutRequests = 256;

/// The request stream plus a shadow adjacency for the BFS oracle.
class ReachStream {
 public:
  explicit ReachStream(uint64_t seed)
      : churn_("E", kVertices, kTargetEdges, seed), adjacency_(kVertices), seen_(kVertices, 0) {}

  Request Next() {
    ++count_;
    if (count_ % kMoveEndpointEvery == 0 && churn_.edge_count() > 0) {
      // s := one endpoint of a random edge, and next time t := its other
      // endpoint, so answers flip between true and false as edges churn.
      if (move_s_) {
        const auto& edge = churn_.edges()[churn_.rng()->Below(churn_.edge_count())];
        partner_ = edge.second;
        move_s_ = false;
        return Observe(Request::SetConstant("s", edge.first));
      }
      move_s_ = true;
      return Observe(Request::SetConstant("t", partner_));
    }
    return Observe(churn_.Next());
  }

  /// s ~ t in the shadow graph (BFS from s).
  bool Connected() {
    if (s_ == t_) return true;
    ++stamp_;
    std::vector<uint32_t> frontier = {s_};
    seen_[s_] = stamp_;
    while (!frontier.empty()) {
      const uint32_t u = frontier.back();
      frontier.pop_back();
      for (uint32_t v : adjacency_[u]) {
        if (v == t_) return true;
        if (seen_[v] == stamp_) continue;
        seen_[v] = stamp_;
        frontier.push_back(v);
      }
    }
    return false;
  }

  size_t edge_count() const { return churn_.edge_count(); }

 private:
  Request Observe(Request request) {
    if (request.kind == RequestKind::kSetConstant) {
      (request.target == "s" ? s_ : t_) = request.value;
    } else {
      const uint32_t u = request.tuple[0], v = request.tuple[1];
      if (request.kind == RequestKind::kInsert) {
        adjacency_[u].push_back(v);
        adjacency_[v].push_back(u);
      } else {
        Unlink(u, v);
        Unlink(v, u);
      }
    }
    return request;
  }
  void Unlink(uint32_t u, uint32_t v) {
    auto& list = adjacency_[u];
    auto it = std::find(list.begin(), list.end(), v);
    *it = list.back();
    list.pop_back();
  }

  HeldCountChurn churn_;
  std::vector<std::vector<uint32_t>> adjacency_;
  std::vector<uint32_t> seen_;
  uint32_t stamp_ = 0;
  uint64_t count_ = 0;
  bool move_s_ = true;
  uint32_t partner_ = 0;
  uint32_t s_ = 0, t_ = 0;
};

GuardedEngineOptions DurableOptions() {
  GuardedEngineOptions options;
  options.engine_options = ServerEngineOptions();
  options.check_every = 0;  // no oracle hooks, as in dynfo_server
  return options;
}

/// A store directory, the guarded engine journaling into it, and the
/// stream feeding it.
struct Session {
  std::string dir;
  std::unique_ptr<GuardedEngine> guarded;
  std::optional<ReachStream> stream;
  /// Every request applied, preload included, when `record` is set (traced
  /// runs, for the shadow replay); untraced runs keep nothing per request,
  /// so their memory does not grow with throughput.
  bool record = false;
  RequestSequence history;
  size_t applied = 0;  ///< requests applied, preload included
};

std::string FreshDir(const RunConfig& config, const std::string& tag) {
  const std::string dir =
      config.work_dir + "/reach_u_durable-" + std::to_string(::getpid()) + "-" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Creates the store and preloads the graph to its target edge count with
/// one group-committed batch. Returns false (and records why) on failure.
bool SetUp(const std::shared_ptr<const DynProgram>& program, const std::string& dir,
           uint64_t seed, Session* session, Result* result) {
  session->dir = dir;
  session->stream.emplace(seed);
  session->guarded = std::make_unique<GuardedEngine>(program, kVertices, nullptr,
                                                     nullptr, DurableOptions());
  dynfo::core::Status attached = session->guarded->AttachDurability(dir);
  if (!attached.ok()) {
    result->Error("AttachDurability: " + attached.ToString());
    return false;
  }
  RequestSequence preload;
  while (session->stream->edge_count() < kTargetEdges) {
    preload.push_back(session->stream->Next());
  }
  dynfo::core::Status loaded = session->guarded->ApplyBatch(preload);
  if (!loaded.ok()) {
    result->Error("preload ApplyBatch: " + loaded.ToString());
    return false;
  }
  session->applied = preload.size();
  if (session->record) session->history = std::move(preload);
  return true;
}

/// Reopens the store into fresh GuardedEngines; each revived state must be
/// bit-identical to `live_snapshot`. Returns the revive times in ms.
std::vector<double> Revive(const std::shared_ptr<const DynProgram>& program,
                           const std::string& dir, const std::string& live_snapshot,
                           uint64_t* replayed, Result* result) {
  std::vector<double> ms;
  for (int i = 0; i < kRevives; ++i) {
    const int64_t start = NowNs();
    GuardedEngine revived(program, kVertices, nullptr, nullptr, DurableOptions());
    dynfo::core::Status attached = revived.AttachDurability(dir);
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    const bool same = attached.ok() && revived.engine().Snapshot() == live_snapshot;
    result->Count(same);
    if (!same) {
      result->Error("revived state differs from the live state (" + attached.ToString() + ")");
    }
    *replayed = revived.recovery_stats().replayed_on_recovery;
  }
  return ms;
}

struct Window {
  Samples update, query;
  Samples checkpoint_update, plain_update;  ///< traced only
  size_t first_request = 0;  ///< index into history of the window's first request
  uint64_t updates = 0;
  double seconds = 0;
  uint64_t wchar = 0;
  dynfo::dyn::DurableStore::Counters before, after;
};

/// Closed loop: Apply, then QueryBool, until `seconds` pass.
Window RunWindow(Session* session, double seconds, bool traced, Result* result) {
  Window window;
  GuardedEngine& guarded = *session->guarded;
  const dynfo::dyn::DurableStore& store = *guarded.durable_store();
  window.before = store.counters();
  window.first_request = session->applied;
  const uint64_t wchar_before = WriteChars();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  while (now < deadline) {
    const Request request = session->stream->Next();
    const uint64_t checkpoints_before =
        store.counters().checkpoints + store.counters().full_snapshots;
    const int64_t t0 = NowNs();
    const dynfo::core::Status applied = guarded.Apply(request);
    const int64_t t1 = NowNs();
    const bool answer = guarded.QueryBool();
    now = NowNs();
    ++session->applied;
    if (session->record) session->history.push_back(request);
    window.update.AddNs(t1 - t0);
    window.query.AddNs(now - t1);
    if (traced) {
      const bool checkpointed =
          store.counters().checkpoints + store.counters().full_snapshots != checkpoints_before;
      (checkpointed ? window.checkpoint_update : window.plain_update).AddNs(t1 - t0);
    }
    result->Count(applied.ok());
    if (!applied.ok()) result->Error("Apply " + request.ToString() + ": " + applied.ToString());
    const bool expected = session->stream->Connected();
    result->Count(answer == expected);
    if (answer != expected) result->Error("reach answer differs from BFS after " + request.ToString());
  }
  window.seconds = static_cast<double>(now - start) / 1e9;
  window.wchar = WriteChars() - wchar_before;
  window.updates = window.update.count();
  window.after = store.counters();
  return window;
}

/// Replays `history` through a bare Engine, timing (and counting) only the
/// requests of `windows`: the engine layer's share of the guarded Apply.
void ShadowReplay(const std::shared_ptr<const DynProgram>& program,
                  const RequestSequence& history, size_t preload,
                  const std::vector<const Window*>& windows, Samples* apply, Samples* query,
                  EngineTotals* totals) {
  Engine engine(program, kVertices, ServerEngineOptions());
  engine.ApplyBatch(std::span<const Request>(history.data(), preload));
  size_t next = preload;
  for (const Window* window : windows) {
    for (; next < window->first_request; ++next) engine.Apply(history[next]);
    engine.ResetStats();
    engine.ResetEvalStats();
    for (; next < window->first_request + window->updates; ++next) {
      const int64_t t0 = NowNs();
      (void)engine.TryApply(history[next]);
      const int64_t t1 = NowNs();
      (void)engine.QueryBool();
      const int64_t t2 = NowNs();
      apply->AddNs(t1 - t0);
      query->AddNs(t2 - t1);
    }
    totals->Add(engine);
  }
}

/// Two fresh stores fed the same fixed prefix must count identical work.
void CheckExactCounters(const RunConfig& config,
                        const std::shared_ptr<const DynProgram>& program, Result* result) {
  uint64_t tuples[2], probes[2], fsyncs[2], bytes[2];
  for (int round = 0; round < 2; ++round) {
    const std::string dir = FreshDir(config, "exact" + std::to_string(round));
    GuardedEngine guarded(program, kVertices, nullptr, nullptr, DurableOptions());
    if (!guarded.AttachDurability(dir).ok()) result->Error("exact: AttachDurability failed");
    ReachStream stream(SubSeed(config.seed, 31));
    for (size_t i = 0; i < kExactPrefix; ++i) (void)guarded.Apply(stream.Next());
    tuples[round] = guarded.engine().stats().tuples_written;
    probes[round] = guarded.engine().eval_stats().index_probes;
    fsyncs[round] = guarded.durable_store()->counters().fsyncs;
    bytes[round] = guarded.durable_store()->counters().bytes_appended;
    std::filesystem::remove_all(dir);
  }
  if (tuples[0] != tuples[1] || probes[0] != probes[1] || fsyncs[0] != fsyncs[1] ||
      bytes[0] != bytes[1]) {
    result->Error("exact counters did not repeat at a fixed seed");
  }
  result->Set("exact.tuples_written", static_cast<double>(tuples[0]));
  result->Set("exact.index_probes", static_cast<double>(probes[0]));
  result->Set("exact.fsyncs", static_cast<double>(fsyncs[0]));
  result->Set("exact.journal_bytes", static_cast<double>(bytes[0]));
}

/// A short untimed pass from the held-out seed, every answer checked
/// against the library's own BFS oracle over the guarded input, then a
/// revive check.
void HeldOut(const RunConfig& config, const std::shared_ptr<const DynProgram>& program,
             Result* result) {
  Session session;
  if (!SetUp(program, FreshDir(config, "heldout"), kHeldOutSeed, &session, result)) return;
  for (size_t i = 0; i < kHeldOutRequests; ++i) {
    const Request request = session.stream->Next();
    const bool applied = session.guarded->Apply(request).ok();
    const bool answer = session.guarded->QueryBool();
    const bool ok = applied && answer == dynfo::programs::ReachUOracle(session.guarded->input()) &&
                    answer == session.stream->Connected();
    result->Count(ok);
    if (!ok) result->Error("held-out: wrong answer or refused " + request.ToString());
  }
  const std::string live = session.guarded->engine().Snapshot();
  session.guarded.reset();
  uint64_t replayed = 0;
  Revive(program, session.dir, live, &replayed, result);
  std::filesystem::remove_all(session.dir);
}

}  // namespace

Result RunReachUDurable(const RunConfig& config) {
  Result result;
  const std::shared_ptr<const DynProgram> program = dynfo::programs::MakeReachUProgram();

  // A timed set-up of a fresh store, on a graph of its own.
  std::vector<double> setup_seconds;
  auto set_up = [&](int i, const std::string& tag, Session* target) {
    const std::string dir = FreshDir(config, tag);
    const int64_t start = NowNs();
    const bool ok = SetUp(program, dir, SubSeed(config.seed, 1000 + i), target, &result);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return ok;
  };
  Session session;
  session.record = config.trace;
  if (!set_up(0, "live", &session)) return result;
  const size_t preload = session.applied;

  if (!config.trace) {
    // The loop runs in kChunks stretches with a spare set-up (built and
    // discarded) after each, so setup_s samples the host across the whole
    // run, not the moment it started.
    Window window;
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      const Window part = RunWindow(&session, config.seconds / kChunks, false, &result);
      window.update.Append(part.update);
      window.query.Append(part.query);
      window.updates += part.updates;
      window.seconds += part.seconds;
      Session spare;
      const bool ok = set_up(1 + chunk, "spare", &spare);
      spare.guarded.reset();
      std::filesystem::remove_all(spare.dir);
      if (!ok) return result;
    }
    result.Set("setup_s", Median(setup_seconds));
    result.Set("update_p50_us", window.update.P(0.5));
    result.Set("update_p99_us", window.update.P(0.99));
    result.Set("updates_per_s", static_cast<double>(window.updates) / window.seconds);
    result.Set("queries_per_s", static_cast<double>(window.query.count()) / window.seconds);
    result.Note("reach_u_durable: " + std::to_string(window.updates) + " durable updates, n=" +
                std::to_string(kVertices) + ", " + std::to_string(kTargetEdges) +
                " edges held; store on " + FilesystemType(session.dir));
  } else {
    // Untraced and traced windows alternate, so drift cannot pose as
    // tracing overhead; per-layer numbers come from the traced windows.
    std::vector<Window> windows;
    for (int round = 0; round < 4; ++round) {
      windows.push_back(RunWindow(&session, config.seconds / 4, round % 2 == 1, &result));
    }
    double per_update[2] = {0, 0};
    uint64_t updates = 0, wchar = 0;
    uint64_t fsyncs = 0, bytes = 0, checkpoints = 0, full = 0, collected = 0;
    Samples recovery, checkpoint_update, plain_update;
    std::vector<const Window*> traced;
    for (size_t i = 0; i < windows.size(); ++i) {
      const Window& w = windows[i];
      per_update[i % 2] += w.seconds / static_cast<double>(std::max<uint64_t>(w.updates, 1));
      if (i % 2 == 0) continue;
      traced.push_back(&w);
      updates += w.updates;
      wchar += w.wchar;
      fsyncs += w.after.fsyncs - w.before.fsyncs;
      bytes += w.after.bytes_appended - w.before.bytes_appended;
      checkpoints += w.after.checkpoints - w.before.checkpoints;
      full += w.after.full_snapshots - w.before.full_snapshots;
      collected += w.after.files_collected - w.before.files_collected;
      recovery.Append(w.update);
      checkpoint_update.Append(w.checkpoint_update);
      plain_update.Append(w.plain_update);
    }
    result.Set("trace.overhead", per_update[0] > 0 ? per_update[1] / per_update[0] : 0);

    Samples engine_apply, engine_query;
    EngineTotals totals;
    ShadowReplay(program, session.history, preload, traced, &engine_apply, &engine_query,
                 &totals);
    totals.Report(engine_apply, engine_query, &result);

    // Both sample sets hold every traced request in order (far below the
    // reservoir size), so they pair up request by request.
    result.Set("recovery.apply_us_p50", recovery.P(0.5));
    result.Set("recovery.apply_us_p99", recovery.P(0.99));
    result.Set("recovery.self_us_p50", SelfTimes(recovery, engine_apply).P(0.5));

    const double per = static_cast<double>(std::max<uint64_t>(updates, 1));
    result.Set("journal.fsyncs_per_update", static_cast<double>(fsyncs) / per);
    result.Set("journal.bytes_appended_per_update", static_cast<double>(bytes) / per);
    result.Set("journal.disk_write_bytes_per_update", static_cast<double>(wchar) / per);
    result.Set("journal.checkpoints", static_cast<double>(checkpoints));
    result.Set("journal.full_snapshots", static_cast<double>(full));
    result.Set("journal.files_collected", static_cast<double>(collected));
    result.Set("journal.dir_bytes", static_cast<double>(DirBytes(session.dir)));
    result.Set("journal.checkpoint_update_us_p50", checkpoint_update.P(0.5));
    result.Set("journal.plain_update_us_p50", plain_update.P(0.5));
    ReportWorkingSet(session.guarded->engine(), &result);
  }

  // The live state, then revival from the directory alone.
  const std::string live = session.guarded->engine().Snapshot();
  session.guarded.reset();
  uint64_t replayed = 0;
  const std::vector<double> revive_ms = Revive(program, session.dir, live, &replayed, &result);
  result.Set("journal.revive_ms", Median(revive_ms));
  result.Set("journal.revive_replayed", static_cast<double>(replayed));
  std::filesystem::remove_all(session.dir);

  HeldOut(config, program, &result);
  CheckExactCounters(config, program, &result);
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace bench_e2e
