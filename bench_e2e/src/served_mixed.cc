/// served_mixed: an in-process EngineService + ServiceServer set up as
/// dynfo_server sets them up, serving specs/reach_acyclic.dynfo (loaded
/// through LoadProgramFromText) on a unix socket to four wire::Client
/// connections:
///
///   * one writer: forward-edge churn (u < v, so the graph stays acyclic)
///     held at a target edge count; every 8th call is a `batch ... end`
///     frame of 8 requests;
///   * three readers: `query` frames (P(s, t)) and `eval P(a, b)` frames,
///     with (a, b) drawn Zipf-skewed over the vertices.
///
/// Every read's (answer, v=) is checked as it arrives against the reader's
/// own oracle replay of the writer's prefix up to v (the writer logs each
/// frame's requests before sending it); the final state must equal the
/// writer-side oracle. The traced run adds three socketless single-threaded
/// replays of the recorded frame stream: through ServiceServer::Dispatch,
/// through the EngineService calls (with the FO parser), and through a bare
/// Engine.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "dynfo/loader.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"
#include "fo/parser.h"
#include "gen.h"
#include "workloads.h"

namespace bench_e2e {
namespace {

using dynfo::dyn::DynProgram;
using dynfo::dyn::Engine;
using dynfo::dyn::EngineService;
using dynfo::dyn::ServiceOptions;
using dynfo::dyn::ServiceServer;
using dynfo::relational::Request;
using dynfo::relational::RequestKind;
using dynfo::relational::RequestSequence;
namespace wire = dynfo::dyn::wire;

constexpr uint32_t kVertices = 64;
constexpr size_t kTargetEdges = 96;
constexpr int kReaders = 3;
constexpr uint64_t kBatchEvery = 8;
constexpr size_t kBatchSize = 8;
constexpr double kZipfExponent = 1.1;
constexpr size_t kPreloadFrame = 32;
/// Length of one window between reconnects.
constexpr double kWindowSeconds = 0.5;
/// Frames replayed socketlessly in a traced run (a prefix of the stream).
constexpr size_t kReplayFrames = 20000;
/// Capacity of the ring that holds the writer's requests until every reader
/// has replayed them. Readers replay up to each version they read, so they
/// trail the writer by a few frames; the ring only fills if one stalls.
constexpr size_t kRing = size_t{1} << 14;

/// One recorded frame of a traced window, for the socketless replays.
struct Frame {
  int64_t start_ns = 0;
  double call_us = 0;  ///< the live Client::Call
  bool write = false;
  std::string text;
};

/// What one client thread saw in one window.
struct ThreadLog {
  Samples latency;
  std::vector<Frame> frames;
  int64_t start_ns = 0, end_ns = 0;
  uint64_t calls = 0, failed = 0, requests = 0;
  size_t retained_max = 0;
  std::string first_error;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// Forward reachability (reflexive) in the oracle DAG.
class DagOracle {
 public:
  DagOracle() : out_(kVertices), seen_(kVertices, 0) {}

  void Apply(const Request& request) {
    if (request.kind == RequestKind::kSetConstant) {
      (request.target == "s" ? s_ : t_) = request.value;
      return;
    }
    auto& list = out_[request.tuple[0]];
    if (request.kind == RequestKind::kInsert) {
      list.push_back(request.tuple[1]);
    } else {
      list.erase(std::find(list.begin(), list.end(), request.tuple[1]));
    }
  }

  bool Reach(uint32_t a, uint32_t b) {
    if (a == b) return true;
    ++stamp_;
    std::vector<uint32_t> stack = {a};
    seen_[a] = stamp_;
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      for (uint32_t v : out_[u]) {
        if (v == b) return true;
        if (seen_[v] != stamp_) {
          seen_[v] = stamp_;
          stack.push_back(v);
        }
      }
    }
    return false;
  }
  bool Query() { return Reach(s_, t_); }
  bool HasEdge(uint32_t u, uint32_t v) const {
    return std::find(out_[u].begin(), out_[u].end(), v) != out_[u].end();
  }
  uint32_t s() const { return s_; }
  uint32_t t() const { return t_; }

 private:
  std::vector<std::vector<uint32_t>> out_;
  std::vector<uint32_t> seen_;
  uint32_t stamp_ = 0;
  uint32_t s_ = 0, t_ = 0;
};

/// A reader's oracle, kept across windows: the writer's requests
/// [0, applied) replayed.
struct ReaderOracle {
  DagOracle oracle;
  std::atomic<size_t> applied{0};
};

/// A served program: service, socket server, and four connected clients.
struct Served {
  std::shared_ptr<const DynProgram> program;
  std::unique_ptr<EngineService> service;
  std::unique_ptr<ServiceServer> server;
  std::vector<std::unique_ptr<wire::Client>> clients;  ///< [0] is the writer
  std::optional<HeldCountChurn> churn;
  /// The writer's requests in send order: request i sits at ring[i % kRing]
  /// until every reader has replayed it. A version v read back from the
  /// service is the state after requests [0, v).
  std::vector<Request> ring = std::vector<Request>(kRing);
  std::atomic<size_t> published{0};
  std::array<ReaderOracle, kReaders> readers;
  DagOracle oracle;           ///< every published request (writer side)
  uint64_t ring_waits = 0;    ///< times the writer waited for a reader

  /// Waits until `n` more requests fit in the ring without overwriting one
  /// a reader has yet to replay. False if `deadline` passes first.
  bool WaitForRoom(size_t n, int64_t deadline) {
    const size_t at = published.load(std::memory_order_relaxed);
    if (at + n <= SlowestReader() + kRing) return true;
    ++ring_waits;
    while (at + n > SlowestReader() + kRing) {
      if (NowNs() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
  /// Logs `requests` before they are sent; WaitForRoom must have passed.
  void Publish(const RequestSequence& requests) {
    const size_t at = published.load(std::memory_order_relaxed);
    for (size_t i = 0; i < requests.size(); ++i) {
      ring[(at + i) % kRing] = requests[i];
      oracle.Apply(requests[i]);
    }
    published.store(at + requests.size(), std::memory_order_release);
  }
  size_t history_size() const { return published.load(std::memory_order_acquire); }
  size_t SlowestReader() const {
    size_t slowest = SIZE_MAX;
    for (const ReaderOracle& reader : readers) {
      slowest = std::min(slowest, reader.applied.load(std::memory_order_acquire));
    }
    return slowest;
  }

  ~Served() {
    clients.clear();
    if (server) server->Stop();
  }
};

ServiceOptions ServerOptions() {
  ServiceOptions options;
  options.engine.engine_options = ServerEngineOptions();
  options.engine.check_every = 0;  // as dynfo_server
  return options;
}

bool ReadSpec(const RunConfig& config, std::string* text, Result* result) {
  std::ifstream in(config.root + "/specs/reach_acyclic.dynfo");
  if (!in) {
    result->Error("cannot open " + config.root + "/specs/reach_acyclic.dynfo");
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

std::string BatchFrame(const RequestSequence& requests) {
  std::string frame = "batch\n";
  for (const Request& request : requests) frame += WireText(request) + "\n";
  return frame + "end";
}

/// The timed set-up: loads the program, builds the service, sets s and t,
/// and preloads the graph drawn from `seed` to its target edge count in
/// batches of kPreloadFrame through a service session.
bool SetUp(uint64_t seed, const std::string& spec, Served* served, Result* result) {
  auto loaded = dynfo::dyn::LoadProgramFromText(spec);
  if (!loaded.ok()) {
    result->Error("LoadProgramFromText: " + loaded.status().ToString());
    return false;
  }
  served->program = loaded.value();
  served->service = std::make_unique<EngineService>(served->program, kVertices, ServerOptions());
  const auto session = served->service->OpenSession();
  if (!session.ok()) {
    result->Error("OpenSession: " + session.status().ToString());
    return false;
  }
  dynfo::core::Rng rng(SubSeed(seed, 2));
  const uint32_t s = static_cast<uint32_t>(rng.Below(kVertices / 4));
  const uint32_t t = static_cast<uint32_t>(kVertices - 1 - rng.Below(kVertices / 4));
  served->churn.emplace("E", kVertices, kTargetEdges, SubSeed(seed, 3));
  RequestSequence batch = {Request::SetConstant("s", s), Request::SetConstant("t", t)};
  while (!batch.empty()) {
    served->Publish(batch);  // no reader yet: the ring has room
    const dynfo::core::Status applied = served->service->ApplyBatch(session.value(), batch);
    if (!applied.ok()) {
      result->Error("preload ApplyBatch: " + applied.ToString());
      return false;
    }
    batch.clear();
    while (batch.size() < kPreloadFrame && served->churn->edge_count() < kTargetEdges) {
      batch.push_back(served->churn->Next());
    }
  }
  served->service->CloseSession(session.value());
  return true;
}

/// Starts the socket server and connects the four clients (not timed).
bool Listen(const RunConfig& config, int index, Served* served, Result* result) {
  wire::Address address;
  address.kind = wire::Address::Kind::kUnix;
  address.path = config.work_dir + "/served-" + std::to_string(::getpid()) + "-" +
                 std::to_string(index) + ".sock";
  served->server = std::make_unique<ServiceServer>(served->service.get(), address);
  dynfo::core::Status started = served->server->Start();
  if (!started.ok()) {
    result->Error("ServiceServer::Start: " + started.ToString());
    return false;
  }
  for (int i = 0; i <= kReaders; ++i) {
    served->clients.push_back(std::make_unique<wire::Client>(address));
    dynfo::core::Status connected = served->clients.back()->Connect();
    if (!connected.ok()) {
      result->Error("Client::Connect: " + connected.ToString());
      return false;
    }
  }
  return true;
}

/// Parses "<true|false> v=<n> tier=..." from a read response.
bool ParseRead(const wire::Response& response, bool* answer, uint64_t* version) {
  if (response.code != 0) return false;
  std::istringstream in(response.body);
  std::string word, v;
  in >> word >> v;
  if ((word != "true" && word != "false") || v.rfind("v=", 0) != 0) return false;
  *answer = word == "true";
  *version = std::strtoull(v.c_str() + 2, nullptr, 10);
  return true;
}

void WriterLoop(Served* served, int64_t deadline, bool traced, ThreadLog* log) {
  wire::Client& client = *served->clients[0];
  log->start_ns = NowNs();
  for (uint64_t call = 0; NowNs() < deadline; ++call) {
    const size_t count = call % kBatchEvery == kBatchEvery - 1 ? kBatchSize : 1;
    if (!served->WaitForRoom(count, deadline)) break;
    RequestSequence requests;
    for (size_t i = 0; i < count; ++i) requests.push_back(served->churn->Next());
    const std::string frame = count == 1 ? WireText(requests[0]) : BatchFrame(requests);
    served->Publish(requests);
    wire::Response response;
    const int64_t t0 = NowNs();
    const dynfo::core::Status called = client.Call(frame, &response);
    const int64_t t1 = NowNs();
    log->latency.AddNs(t1 - t0);
    ++log->calls;
    if (traced) log->frames.push_back({t0, static_cast<double>(t1 - t0) / 1e3, true, frame});
    if (called.ok() && response.code == 0 && response.body.rfind("ok", 0) == 0) {
      log->requests += count;
    } else {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = frame + " -> " + response.body;
    }
  }
  log->end_ns = NowNs();
}

void ReaderLoop(Served* served, int reader, uint64_t seed, const ZipfSampler& zipf,
                const std::vector<uint32_t>& by_rank, int64_t deadline, bool traced,
                ThreadLog* log) {
  wire::Client& client = *served->clients[1 + reader];
  ReaderOracle& state = served->readers[reader];
  dynfo::core::Rng rng(SubSeed(seed, 100 + reader));
  size_t applied = state.applied.load(std::memory_order_relaxed);
  log->start_ns = NowNs();
  for (uint64_t call = 0; NowNs() < deadline; ++call) {
    const bool eval = rng.Chance(1, 2);
    uint32_t a = 0, b = 0;
    std::string frame = "query";
    if (eval) {
      a = by_rank[zipf.Sample(&rng)];
      b = by_rank[zipf.Sample(&rng)];
      frame = "eval P(" + std::to_string(a) + ", " + std::to_string(b) + ")";
    }
    wire::Response response;
    const int64_t t0 = NowNs();
    const dynfo::core::Status called = client.Call(frame, &response);
    const int64_t t1 = NowNs();
    log->latency.AddNs(t1 - t0);
    ++log->calls;
    if (traced) log->frames.push_back({t0, static_cast<double>(t1 - t0) / 1e3, false, frame});
    bool answer = false;
    uint64_t version = 0;
    if (!called.ok() || !ParseRead(response, &answer, &version)) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = frame + " -> " + response.body;
      continue;
    }
    // Check against the oracle at v (untimed). Versions never go backwards,
    // and v never runs ahead of what the writer logged.
    if (version < applied || version > served->history_size()) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = frame + " read v=" + std::to_string(version);
      continue;
    }
    while (applied < version) state.oracle.Apply(served->ring[applied++ % kRing]);
    state.applied.store(applied, std::memory_order_release);
    if (answer != (eval ? state.oracle.Reach(a, b) : state.oracle.Query())) {
      ++log->failed;
      if (log->first_error.empty()) {
        log->first_error = frame + " answered " + response.body + ", oracle disagrees";
      }
    }
    if (reader == 0 && call % 64 == 0) {
      log->retained_max = std::max(log->retained_max, served->service->retained_versions());
    }
  }
  log->end_ns = NowNs();
}

/// One closed-loop window: the writer and the readers run until `seconds`
/// pass. logs[0] is the writer's.
std::vector<ThreadLog> RunWindow(Served* served, const RunConfig& config, double seconds,
                                 bool traced, const ZipfSampler& zipf,
                                 const std::vector<uint32_t>& by_rank, uint64_t window) {
  std::vector<ThreadLog> logs(kReaders + 1);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.emplace_back(WriterLoop, served, deadline, traced, &logs[0]);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, served, r, SubSeed(config.seed, window), std::cref(zipf),
                         std::cref(by_rank), deadline, traced, &logs[1 + r]);
  }
  for (std::thread& thread : threads) thread.join();
  return logs;
}

/// The final service state against the oracle: the service's Snapshot()
/// is restored into an engine, whose E, P (the reflexive transitive
/// closure), s, t and request counter must match the oracle DAG after the
/// whole history.
void CheckFinalState(Served* served, Result* result) {
  DagOracle& oracle = served->oracle;
  Engine restored(served->program, kVertices);
  bool same = restored.Restore(served->service->Snapshot()).ok() &&
              restored.stats().requests == served->history_size() &&
              restored.data().constant("s") == oracle.s() &&
              restored.data().constant("t") == oracle.t();
  const dynfo::relational::Relation& edges = restored.data().relation("E");
  const dynfo::relational::Relation& paths = restored.data().relation("P");
  size_t edge_count = 0, path_count = 0;
  for (uint32_t a = 0; a < kVertices && same; ++a) {
    for (uint32_t b = 0; b < kVertices && same; ++b) {
      const bool edge = oracle.HasEdge(a, b), path = oracle.Reach(a, b);
      edge_count += edge;
      path_count += path;
      same = edges.Contains({a, b}) == edge && paths.Contains({a, b}) == path;
    }
  }
  same = same && edges.size() == edge_count && paths.size() == path_count;
  result->Count(same);
  if (!same) result->Error("final service state differs from the oracle");
}

/// Frames of all threads in start order, cut to kReplayFrames.
std::vector<Frame> MergeFrames(std::vector<ThreadLog>* logs) {
  std::vector<Frame> all;
  for (ThreadLog& log : *logs) {
    std::move(log.frames.begin(), log.frames.end(), std::back_inserter(all));
  }
  std::sort(all.begin(), all.end(),
            [](const Frame& x, const Frame& y) { return x.start_ns < y.start_ns; });
  if (all.size() > kReplayFrames) all.resize(kReplayFrames);
  return all;
}

/// Requests of one write frame (single mutation or batch block).
RequestSequence ParseWrite(const std::string& frame) {
  RequestSequence out;
  std::istringstream lines(frame);
  std::string line;
  while (std::getline(lines, line)) {
    Request request;
    std::string error;
    if (wire::ParseMutation(wire::SplitWords(line), &request, &error)) out.push_back(request);
  }
  return out;
}

/// A fresh service holding `snapshot` (the state a traced window started from).
std::unique_ptr<EngineService> ServiceAt(const Served& served, const std::string& snapshot,
                                         Result* result) {
  auto service = std::make_unique<EngineService>(served.program, kVertices, ServerOptions());
  const dynfo::core::Status restored = service->Restore(snapshot);
  if (!restored.ok()) result->Error("replay Restore: " + restored.ToString());
  return service;
}

/// The three socketless replays of the traced frame stream.
void ReplayLayers(const Served& served, const std::string& snapshot,
                  const std::vector<Frame>& frames, Result* result) {
  // (1) ServiceServer::Dispatch: wire grammar + service, no socket. Paired
  // frame by frame with the live call, it gives the wire's self time.
  {
    std::unique_ptr<EngineService> service = ServiceAt(served, snapshot, result);
    ServiceServer server(service.get(), wire::Address{});
    const EngineService::SessionId session = service->OpenSession().value();
    Samples live, dispatch;
    for (const Frame& frame : frames) {
      live.Add(frame.call_us);
      std::string response;
      {
        ScopedTimer timer(&dispatch);
        response = server.Dispatch(session, frame.text);
      }
      if (response.rfind("0 ", 0) != 0) result->Error("socketless Dispatch: " + response);
    }
    result->Set("wire.call_us_p50", live.P(0.5));
    result->Set("wire.call_us_p99", live.P(0.99));
    result->Set("wire.dispatch_us_p50", dispatch.P(0.5));
    result->Set("wire.self_us_p50", SelfTimes(live, dispatch).P(0.5));
  }
  // (2) EngineService calls, with the FO parser on each eval text.
  {
    std::unique_ptr<EngineService> service = ServiceAt(served, snapshot, result);
    const EngineService::SessionId session = service->OpenSession().value();
    Samples apply, apply_batch, pin, query_bool, query_sentence, parse;
    for (const Frame& frame : frames) {
      if (frame.write) {
        const RequestSequence requests = ParseWrite(frame.text);
        ScopedTimer timer(requests.size() == 1 ? &apply : &apply_batch);
        (void)(requests.size() == 1 ? service->Apply(session, requests[0])
                                    : service->ApplyBatch(session, requests));
        continue;
      }
      int64_t t0 = NowNs();
      EngineService::ReadPin version = service->PinVersion();
      pin.AddNs(NowNs() - t0);
      if (frame.text == "query") {
        ScopedTimer timer(&query_bool);
        (void)service->QueryBool(version);
        continue;
      }
      dynfo::fo::ParserEnvironment parser(version.program().data_vocabulary());
      t0 = NowNs();
      auto formula = parser.Parse(frame.text.substr(4));
      parse.AddNs(NowNs() - t0);
      if (!formula.ok()) {
        result->Error("parse " + frame.text + ": " + formula.status().ToString());
        continue;
      }
      ScopedTimer timer(&query_sentence);
      (void)service->QuerySentence(version, formula.value());
    }
    result->Set("service.apply_us_p50", apply.P(0.5));
    result->Set("service.apply_batch_us_p50", apply_batch.P(0.5));
    result->Set("service.pin_us_p50", pin.P(0.5));
    result->Set("service.query_bool_us_p50", query_bool.P(0.5));
    result->Set("service.query_sentence_us_p50", query_sentence.P(0.5));
    result->Set("fo.parse_us_p50", parse.P(0.5));
  }
  // (3) A bare Engine: the engine layer under the writes and `query` reads.
  {
    Engine engine(served.program, kVertices, ServerEngineOptions());
    if (!engine.Restore(snapshot).ok()) result->Error("replay Engine::Restore failed");
    engine.ResetStats();
    engine.ResetEvalStats();
    Samples apply, query;
    for (const Frame& frame : frames) {
      if (frame.write) {
        for (const Request& request : ParseWrite(frame.text)) {
          ScopedTimer timer(&apply);
          (void)engine.TryApply(request);
        }
      } else if (frame.text == "query") {
        ScopedTimer timer(&query);
        (void)engine.QueryBool();
      }
    }
    EngineTotals totals;
    totals.Add(engine);
    totals.Report(apply, query, result);
    ReportWorkingSet(engine, result);
  }
}

/// Counts every call of a window, failed ones included.
void CountCalls(const std::vector<ThreadLog>& logs, Result* result) {
  for (const ThreadLog& log : logs) {
    result->attempted += log.calls;
    result->failed += log.failed;
    if (!log.first_error.empty()) result->Error(log.first_error);
  }
}

/// Everything the windows of one kind (untraced or traced) measured. Rates
/// divide by each side's own thread time: the writer's for writes, the
/// readers' for reads.
struct Pool {
  Samples update, query;
  uint64_t write_requests = 0, ops = 0;
  double writer_seconds = 0, reader_seconds = 0;  ///< summed over threads
  size_t retained_max = 0;

  void Add(const std::vector<ThreadLog>& logs) {
    update.Append(logs[0].latency);
    write_requests += logs[0].requests;
    writer_seconds += logs[0].seconds();
    for (size_t i = 0; i < logs.size(); ++i) {
      if (i > 0) {
        query.Append(logs[i].latency);
        reader_seconds += logs[i].seconds();
      }
      ops += logs[i].calls;
      retained_max = std::max(retained_max, logs[i].retained_max);
    }
  }
  double updates_per_s() const { return static_cast<double>(write_requests) / writer_seconds; }
  double queries_per_s() const {
    return static_cast<double>(query.count()) / (reader_seconds / kReaders);
  }
  /// Thread time per call, over all threads.
  double seconds_per_op() const {
    return (writer_seconds + reader_seconds) / static_cast<double>(std::max<uint64_t>(ops, 1));
  }
};

}  // namespace

Result RunServedMixed(const RunConfig& config) {
  Result result;
  std::string spec;
  if (!ReadSpec(config, &spec, &result)) return result;

  // Set-up time is sampled across the whole run: the served set-up, then
  // one spare set-up (built and discarded) before every window, each on a
  // graph of its own. The median thus covers the host over the run, not
  // the moment the run started.
  std::vector<double> setup_seconds;
  auto set_up = [&](int i, Served* target) {
    const int64_t start = NowNs();
    const bool ok = SetUp(SubSeed(config.seed, 1000 + i), spec, target, &result);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return ok;
  };
  auto served = std::make_unique<Served>();
  if (!set_up(0, served.get()) || !Listen(config, 0, served.get(), &result)) return result;

  // Hot keys: Zipf ranks mapped onto a seeded permutation of the vertices.
  const ZipfSampler zipf(kVertices, kZipfExponent);
  std::vector<uint32_t> by_rank(kVertices);
  for (uint32_t v = 0; v < kVertices; ++v) by_rank[v] = v;
  dynfo::core::Rng shuffle(SubSeed(config.seed, 4));
  for (size_t i = by_rank.size(); i > 1; --i) std::swap(by_rank[i - 1], by_rank[shuffle.Below(i)]);

  // The run is a series of short windows; before each, every client
  // reconnects, so the server starts fresh connection threads and each
  // window draws a new placement of the eight threads on the CPUs. A traced
  // run alternates untraced and traced windows, so drift cannot pose as
  // tracing overhead; the service counters cover the traced windows.
  const int windows = std::max(2, static_cast<int>(config.seconds / kWindowSeconds + 0.5));
  Pool plain, traced;
  std::vector<ThreadLog> last_traced;
  std::string traced_start;  ///< service state when the last traced window began
  dynfo::dyn::ServiceStats traced_stats{};
  for (int w = 0; w < windows; ++w) {
    const bool on = config.trace && w % 2 == 1;
    if (Served spare; !set_up(1 + w, &spare)) return result;
    for (auto& client : served->clients) {
      client->HardClose();
      const dynfo::core::Status connected = client->Connect();
      if (!connected.ok()) result.Error("reconnect: " + connected.ToString());
    }
    if (on) traced_start = served->service->Snapshot();
    const dynfo::dyn::ServiceStats before = served->service->stats();
    std::vector<ThreadLog> logs = RunWindow(served.get(), config, config.seconds / windows, on,
                                            zipf, by_rank, 10 + static_cast<uint64_t>(w));
    const dynfo::dyn::ServiceStats after = served->service->stats();
    CountCalls(logs, &result);
    (on ? traced : plain).Add(logs);
    if (!on) continue;
    traced_stats.writes_applied += after.writes_applied - before.writes_applied;
    traced_stats.snapshots_published += after.snapshots_published - before.snapshots_published;
    traced_stats.reads_served += after.reads_served - before.reads_served;
    for (int tier = 0; tier < dynfo::dyn::kNumReadTiers; ++tier) {
      traced_stats.reads_tier[tier] += after.reads_tier[tier] - before.reads_tier[tier];
    }
    traced_stats.admission_rejections += after.admission_rejections - before.admission_rejections;
    traced_stats.admission_timeouts += after.admission_timeouts - before.admission_timeouts;
    last_traced = std::move(logs);
  }
  if (served->ring_waits > 0) {
    result.Note("served_mixed: the writer waited " + std::to_string(served->ring_waits) +
                " time(s) for a reader to replay the request ring");
  }

  if (!config.trace) {
    result.Set("setup_s", Median(setup_seconds));
    result.Set("update_p50_us", plain.update.P(0.5));
    result.Set("update_p99_us", plain.update.P(0.99));
    result.Set("updates_per_s", plain.updates_per_s());
    result.Set("queries_per_s", plain.queries_per_s());
    result.Note("served_mixed: " + std::to_string(plain.update.count()) + " write calls (" +
                std::to_string(plain.write_requests) + " requests), " +
                std::to_string(plain.query.count()) + " reads over " +
                std::to_string(kReaders + 1) + " connections in " + std::to_string(windows) +
                " windows");
  } else {
    result.Set("trace.overhead", traced.seconds_per_op() / plain.seconds_per_op());
    const double writes = static_cast<double>(std::max<uint64_t>(traced_stats.writes_applied, 1));
    const double reads = static_cast<double>(std::max<uint64_t>(traced_stats.reads_served, 1));
    result.Set("service.snapshots_published_per_write",
               static_cast<double>(traced_stats.snapshots_published) / writes);
    result.Set("service.retained_versions_max", static_cast<double>(traced.retained_max));
    result.Set("service.read_tier_compiled_share",
               static_cast<double>(traced_stats.reads_tier[1]) / reads);
    result.Set("service.read_tier_naive_share",
               static_cast<double>(traced_stats.reads_tier[2]) / reads);
    result.Set("service.admission_rejections",
               static_cast<double>(traced_stats.admission_rejections));
    result.Set("service.admission_timeouts", static_cast<double>(traced_stats.admission_timeouts));
    uint64_t resource = 0, transport = 0, reconnects = 0;
    for (const auto& client : served->clients) {
      resource += client->counters().resource_retries;
      transport += client->counters().transport_retries;
      reconnects += client->counters().reconnects;
    }
    result.Set("wire.resource_retries", static_cast<double>(resource));
    result.Set("wire.transport_retries", static_cast<double>(transport));
    // Reconnects the benchmark does not make itself (one per client per window).
    result.Set("wire.reconnects",
               static_cast<double>(reconnects) -
                   static_cast<double>(served->clients.size()) * windows);
    ReplayLayers(*served, traced_start, MergeFrames(&last_traced), &result);
  }

  CheckFinalState(served.get(), &result);
  served.reset();

  // The held-out seed: one untimed window on a fresh server, every read and
  // the final state checked as in the timed run.
  RunConfig held_out = config;
  held_out.seed = kHeldOutSeed;
  served = std::make_unique<Served>();
  if (SetUp(kHeldOutSeed, spec, served.get(), &result) &&
      Listen(held_out, 1, served.get(), &result)) {
    CountCalls(RunWindow(served.get(), held_out, kWindowSeconds, false, zipf, by_rank, 1),
               &result);
    CheckFinalState(served.get(), &result);
  }
  served.reset();
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace bench_e2e
