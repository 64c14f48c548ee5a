/// \file bench_service.cc
/// The service soak (EXPERIMENTS.md): one EngineService under mixed
/// concurrent load — in-process writer sessions with chaos faults armed
/// through their governance, in-process snapshot readers, and wire clients
/// over a real socket that are killed and reconnected mid-stream — for a
/// configurable total request count (the CI gate runs the scaled-down
/// 65536-request arg; the quoted soak is the >= 1M-request arg).
///
/// The soak is a benchmark that doubles as a correctness harness. Hard
/// checks (DYNFO_CHECK aborts the binary with a seeded one-line repro):
///
///   * zero crashes — reaching the report at all is the gate;
///   * snapshot-read linearizability — every read (in-process or over the
///     wire) reports the version it pinned, and a post-soak replay of the
///     applied history through a fresh engine must reproduce each read's
///     exact answer at its pinned version;
///   * pinned-version immutability — re-querying a held pin after other
///     writers committed must return the identical answer;
///   * bit-identical final state — the service's post-soak snapshot equals
///     the oracle engine fed the full applied history.
///
/// Chaos faults reuse the governance injectors (core/fault.h): worker
/// stalls under tight deadlines and deadline jitter, both of which reject
/// the request atomically (typed kDeadlineExceeded/kCancelled) and so
/// preserve the history-replay oracle. Allocation faults are excluded
/// here on purpose: the ladder absorbs them through the start-over rung,
/// which rebuilds auxiliary state from canonical input order and thereby
/// breaks bit-identity with an incremental replay — that coverage lives in
/// bench_chaos, whose oracle compares input relations instead.
///
/// Reported counters per soak:
///   * crashes                   — always 0 (a crash never reports);
///   * read_linearizability      — matched/checked pinned reads (gate 1.0);
///   * oracle_identical          — post-soak bit-identity (gate 1.0);
///   * admission_rejections / admission_timeouts — typed write refusals;
///   * reads_served_per_snapshot — read amortization per published version;
///   * shed_tier0..2_rate        — read-tier distribution under load
///                                 (ExecTier slots: compiled+indexed, the
///                                 retired compiled tier — always 0 —, and
///                                 naive);
///   * reconnects                — client-churn kill/re-dial cycles.
///
/// BM_SnapshotViewO1 pins the tentpole's O(1) claim: the time to take a
/// SnapshotView (what every committed write pays to publish) against the
/// time to take a full serializing Snapshot of the same state, as the
/// o1_ratio counter (CI gate <= 0.05).
///
/// --repro=SEED:STREAM replays one writer stream single-threaded (the
/// stream index and seed are printed in every soak failure message) through
/// a fresh service with the same fault schedule, then re-runs the full
/// oracle replay and bit-identity checks against it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/text.h"

#include "core/fault.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"
#include "dynfo/workload.h"
#include "programs/reach_u.h"

namespace dynfo {
namespace {

constexpr size_t kUniverse = 10;
constexpr uint64_t kSoakSeed = 311;
constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kChurnClients = 4;

/// What a reader observed at one pinned version: the program query's answer
/// and the size of the input relation E (a second, independent probe of the
/// pinned structure). Wire readers only see the query answer.
struct ReadRecord {
  bool result = false;
  uint64_t e_size = 0;
  bool has_e_size = false;
};
using ReadLog = std::map<uint64_t, ReadRecord>;

uint64_t StreamSeed(uint64_t seed, int stream) {
  return seed * 131 + static_cast<uint64_t>(stream) * 7 + 1;
}

/// Deterministic per (seed, stream): the writer's request stream.
relational::RequestSequence MakeStream(size_t count, uint64_t stream_seed) {
  dyn::GraphWorkloadOptions options;
  options.num_requests = count;
  options.seed = stream_seed;
  options.undirected = true;
  options.set_fraction = 0.05;
  return dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E",
                                kUniverse, options);
}

dyn::ApplyGovernance GenerousGovernance() {
  dyn::ApplyGovernance governance;
  governance.deadline_ms = 60 * 1000;
  governance.limits.max_tuples = 1u << 30;
  return governance;
}

dyn::ServiceOptions SoakOptions() {
  dyn::ServiceOptions options;
  options.engine.check_every = 0;
  options.engine.governance.governance = GenerousGovernance();
  options.admission_queue_limit = 4;  // small bound: shedding must engage
  options.shed_naive_at = 0.75;
  options.record_applied_history = true;
  return options;
}

struct SoakTotals {
  std::atomic<uint64_t> faults_injected{0};
  std::atomic<uint64_t> deadline_trips{0};
  std::atomic<uint64_t> admission_rejections{0};
  std::atomic<uint64_t> immutability_rechecks{0};
  std::atomic<uint64_t> churn_calls{0};
  std::atomic<uint64_t> churn_reconnects{0};
};

/// One writer session: replays its stream, arming a governance fault on
/// ~1/64 requests and grouping every 8th run of requests as a batch. A
/// non-OK apply must be typed and expected or the binary dies with the
/// stream's repro context.
void RunWriterStream(dyn::EngineService* service, uint64_t seed, int stream,
                     const relational::RequestSequence& requests,
                     SoakTotals* totals) {
  const std::string context = "seed=" + std::to_string(seed) +
                              " stream=" + std::to_string(stream);
  core::Result<dyn::EngineService::SessionId> session =
      service->OpenSession(GenerousGovernance());
  DYNFO_CHECK(session.ok()) << context << ": OpenSession failed: "
                            << session.status().ToString();
  core::FaultInjector faults(StreamSeed(seed, stream));
  size_t i = 0;
  while (i < requests.size()) {
    faults.set_trial(i);
    bool faulted = false;
    if (faults.rng().Below(64) == 0) {
      faulted = true;
      totals->faults_injected.fetch_add(1, std::memory_order_relaxed);
      dyn::ApplyGovernance governance = GenerousGovernance();
      if (faults.rng().Below(2) == 0) {
        auto stall = faults.PlanWorkerStall(/*max_check=*/32, /*max_millis=*/4);
        governance.stall_at_check = stall.first;
        governance.stall_ms = stall.second;
        governance.deadline_ms = 1 + stall.second / 2;
      } else {
        governance.deadline_ms = faults.PlanDeadlineJitter(/*max_millis=*/2);
      }
      DYNFO_CHECK(
          service->SetSessionGovernance(session.value(), governance).ok())
          << context;
    }

    core::Status status;
    size_t advanced = 1;
    int rejections = 0;
    while (true) {
      if (!faulted && i % 8 == 0 && i + 4 <= requests.size()) {
        dyn::BatchReport report;
        status = service->ApplyBatch(
            session.value(),
            std::span<const relational::Request>(&requests[i], 4), &report);
        // Prefix atomicity: whatever the status, exactly `applied` leading
        // requests took effect and were recorded in the history.
        DYNFO_CHECK(status.ok() ? report.applied == 4 : report.applied < 4)
            << context << " trial=" << i;
        advanced = 4;
        if (!status.ok() && report.applied > 0) break;  // partial: move on
      } else {
        status = service->Apply(session.value(), requests[i]);
      }
      if (status.ok()) break;
      // Survivable refusals: a deadline/cancel trip on a request we armed
      // (the request is dropped — it was rejected atomically), or an
      // admission-queue rejection / admission-wait timeout, which the
      // writer retries with backoff like a wire client would. Anything
      // else is a bug.
      const bool timed_out =
          status.code() == core::StatusCode::kDeadlineExceeded ||
          status.code() == core::StatusCode::kCancelled;
      const bool rejected =
          status.code() == core::StatusCode::kResourceExhausted;
      DYNFO_CHECK((faulted && timed_out) || rejected)
          << context << " trial=" << i << ": unsurvivable status "
          << status.ToString();
      if (timed_out) {
        totals->deadline_trips.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      totals->admission_rejections.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 << std::min(rejections++, 4)));
    }
    if (faulted) {
      DYNFO_CHECK(
          service->SetSessionGovernance(session.value(), GenerousGovernance())
              .ok())
          << context;
    }
    i += advanced;
  }
  service->CloseSession(session.value());
}

/// Merges `from` into `log`, dying if any version was observed with two
/// different answers (a snapshot-isolation violation between readers).
void MergeLog(const ReadLog& from, ReadLog* log, const std::string& context) {
  for (const auto& [version, record] : from) {
    auto [it, inserted] = log->emplace(version, record);
    if (inserted) continue;
    DYNFO_CHECK(it->second.result == record.result)
        << context << ": two readers disagree at version " << version;
    if (record.has_e_size && it->second.has_e_size) {
      DYNFO_CHECK(it->second.e_size == record.e_size)
          << context << ": |E| disagrees at version " << version;
    } else if (record.has_e_size) {
      it->second = record;
    }
  }
}

/// One in-process reader: pins, queries, and records (version -> answer)
/// until both its quota is spent and the writers are done. Every 128th
/// read holds its pin across a yield and re-queries — the pinned version
/// must answer identically no matter what committed meanwhile.
void RunReader(dyn::EngineService* service, std::atomic<int64_t>* quota,
               const std::atomic<bool>* writers_done, ReadLog* log,
               SoakTotals* totals) {
  uint64_t ticks = 0;
  while (true) {
    const bool spent = quota->fetch_sub(1, std::memory_order_relaxed) <= 0;
    if (spent && writers_done->load(std::memory_order_acquire)) break;
    dyn::EngineService::ReadPin pin = service->PinVersion();
    ReadRecord record;
    record.result = service->QueryBool(pin);
    record.e_size = pin.data().relation("E").size();
    record.has_e_size = true;
    auto it = log->find(pin.version());
    if (it == log->end()) {
      (*log)[pin.version()] = record;
    } else {
      DYNFO_CHECK(it->second.result == record.result &&
                  it->second.e_size == record.e_size)
          << "reader re-observed version " << pin.version()
          << " with a different answer";
    }
    if (++ticks % 128 == 0) {
      std::this_thread::yield();
      DYNFO_CHECK(service->QueryBool(pin) == record.result &&
                  pin.data().relation("E").size() == record.e_size)
          << "pinned version " << pin.version() << " mutated under a reader";
      totals->immutability_rechecks.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

/// One wire client: mixed queries and mutations over a real socket with
/// kill-and-reconnect churn (HardClose every ~64 calls). Query responses
/// carry the pinned version, so wire reads feed the same linearizability
/// oracle as in-process ones.
void RunChurnClient(const dyn::wire::Address& address, uint64_t seed,
                    int client_index, size_t ops, ReadLog* log,
                    SoakTotals* totals) {
  const std::string context = "seed=" + std::to_string(seed) +
                              " churn=" + std::to_string(client_index);
  dyn::wire::RetryPolicy policy;
  policy.jitter_seed = StreamSeed(seed, 100 + client_index);
  dyn::wire::Client client(address, policy);
  core::Rng rng(StreamSeed(seed, 200 + client_index));
  for (size_t op = 0; op < ops; ++op) {
    if (rng.Below(64) == 0) client.HardClose();  // kill mid-stream
    std::string request;
    const uint64_t draw = rng.Below(10);
    if (draw < 6) {
      request = "query";
    } else {
      // Arbitrary well-formed churn: duplicate inserts and absent deletes
      // are the paper's no-op requests, so any canonical pair is legal.
      const uint64_t a = rng.Below(kUniverse);
      uint64_t b = rng.Below(kUniverse);
      if (a == b) b = (b + 1) % kUniverse;
      request = (draw < 9 ? "ins E " : "del E ") +
                std::to_string(std::min(a, b)) + " " +
                std::to_string(std::max(a, b));
    }
    dyn::wire::Response response;
    core::Status status = client.Call(request, &response);
    totals->churn_calls.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) {
      // A client that spent its whole retry budget on admission rejections
      // gives up on that mutation — the typed, documented outcome. Any
      // other failure is a bug.
      DYNFO_CHECK(status.code() == core::StatusCode::kResourceExhausted)
          << context << " op=" << op << ": " << request << " -> "
          << status.ToString();
      totals->admission_rejections.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (request == "query") {
      // Body: "true v=<version> tier=<name>".
      ReadRecord record;
      record.result = response.body.rfind("true", 0) == 0;
      const size_t v = response.body.find("v=");
      DYNFO_CHECK(v != std::string::npos) << context << ": " << response.body;
      uint64_t version = 0;
      DYNFO_CHECK(core::ParseU64(
          response.body.substr(v + 2,
                               response.body.find(' ', v) - (v + 2)),
          &version))
          << context << ": " << response.body;
      auto it = log->find(version);
      if (it == log->end()) {
        (*log)[version] = record;
      } else {
        DYNFO_CHECK(it->second.result == record.result)
            << context << ": wire read disagrees at version " << version;
      }
    }
  }
  totals->churn_reconnects.fetch_add(client.counters().reconnects,
                                     std::memory_order_relaxed);
}

/// Replays `history` through a fresh engine, checking every recorded read
/// against the oracle's answer at that exact version. Returns the fraction
/// that matched (the binary has already died unless it is 1.0) and leaves
/// the oracle at the final state for the bit-identity check.
double ReplayOracle(const std::vector<relational::Request>& history,
                    const ReadLog& log, const std::string& context,
                    dyn::Engine* oracle) {
  uint64_t checked = 0;
  uint64_t matched = 0;
  auto check_version = [&](uint64_t version) {
    auto it = log.find(version);
    if (it == log.end()) return;
    ++checked;
    const bool result = oracle->QueryBool();
    const uint64_t e_size = oracle->data().relation("E").size();
    const bool ok = result == it->second.result &&
                    (!it->second.has_e_size || e_size == it->second.e_size);
    DYNFO_CHECK(ok) << context << ": read at version " << version
                    << " does not match the history replay (read "
                    << (it->second.result ? "true" : "false") << ", oracle "
                    << (result ? "true" : "false") << ")";
    if (ok) ++matched;
  };
  check_version(0);
  for (size_t k = 0; k < history.size(); ++k) {
    oracle->Apply(history[k]);
    check_version(static_cast<uint64_t>(k) + 1);
  }
  return checked > 0 ? static_cast<double>(matched) / checked : 1.0;
}

struct SoakResult {
  double read_linearizability = 1.0;
  uint64_t reads_checked = 0;
  dyn::ServiceStats stats;
  SoakTotals* totals = nullptr;
};

/// The full concurrent soak: kWriters sessions + kReaders snapshot readers
/// in-process, kChurnClients wire sessions over tcp, `target` requests in
/// total. Returns only if every hard check passed.
SoakResult RunSoak(uint64_t seed, size_t target, SoakTotals* totals) {
  const std::string context = "seed=" + std::to_string(seed);
  const size_t writes_target = std::max<size_t>(512, target / 16);
  const size_t churn_ops = std::max<size_t>(64, target / 256);
  const size_t reads_target =
      target - std::min(target, writes_target + kChurnClients * churn_ops);

  dyn::EngineService service(programs::MakeReachUProgram(), kUniverse,
                             SoakOptions());
  dyn::wire::Address address;
  address.kind = dyn::wire::Address::Kind::kTcp;
  address.port = 0;
  dyn::ServiceServer server(&service, address);
  DYNFO_CHECK(server.Start().ok()) << context;

  std::vector<relational::RequestSequence> streams;
  for (int w = 0; w < kWriters; ++w) {
    streams.push_back(MakeStream(writes_target / kWriters, StreamSeed(seed, w)));
  }

  std::atomic<int64_t> read_quota{static_cast<int64_t>(reads_target)};
  std::atomic<bool> writers_done{false};
  std::vector<ReadLog> reader_logs(kReaders + kChurnClients);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(RunWriterStream, &service, seed, w,
                         std::cref(streams[w]), totals);
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(RunReader, &service, &read_quota, &writers_done,
                         &reader_logs[r], totals);
  }
  for (int c = 0; c < kChurnClients; ++c) {
    threads.emplace_back(RunChurnClient, std::cref(server.address()), seed, c,
                         churn_ops, &reader_logs[kReaders + c], totals);
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  server.Stop();

  // >= 8 concurrent sessions: the writer sessions plus one per accepted
  // wire connection (churn reconnects open fresh ones).
  SoakResult result;
  result.stats = service.stats();
  result.totals = totals;
  DYNFO_CHECK(result.stats.sessions_opened >=
              static_cast<uint64_t>(kWriters + kChurnClients))
      << context;

  // Version accounting: the newest published version is exactly the number
  // of requests the history recorded.
  const std::vector<relational::Request>& history = service.applied_history();
  {
    dyn::EngineService::ReadPin pin = service.PinVersion();
    DYNFO_CHECK(pin.version() == history.size())
        << context << ": newest version " << pin.version() << " != history "
        << history.size();
  }

  ReadLog merged;
  for (const ReadLog& log : reader_logs) MergeLog(log, &merged, context);
  for (const auto& [version, record] : merged) {
    DYNFO_CHECK(version <= history.size())
        << context << ": read pinned version " << version
        << " beyond the history (" << history.size() << ")";
  }

  dyn::Engine oracle(programs::MakeReachUProgram(), kUniverse);
  result.read_linearizability = ReplayOracle(history, merged, context, &oracle);
  result.reads_checked = merged.size();

  // Bit-identical post-soak state: the service's serialized snapshot equals
  // the oracle's after the full history.
  DYNFO_CHECK(service.Snapshot() == oracle.Snapshot())
      << context << ": post-soak state diverged from the history replay";
  return result;
}

void BM_ServiceSoak(benchmark::State& state) {
  const size_t target = static_cast<size_t>(state.range(0));
  SoakTotals totals;
  SoakResult result;
  uint64_t requests = 0;
  for (auto _ : state) {
    result = RunSoak(kSoakSeed, target, &totals);
    requests += result.stats.writes_applied + result.stats.reads_served;
  }
  const dyn::ServiceStats& stats = result.stats;
  const double reads =
      stats.reads_served > 0 ? static_cast<double>(stats.reads_served) : 1.0;
  state.counters["crashes"] = 0;  // a crash never reaches this line
  state.counters["read_linearizability"] = result.read_linearizability;
  state.counters["oracle_identical"] = 1.0;  // DYNFO_CHECK-enforced above
  state.counters["reads_checked"] = static_cast<double>(result.reads_checked);
  state.counters["admission_rejections"] =
      static_cast<double>(stats.admission_rejections);
  state.counters["admission_timeouts"] =
      static_cast<double>(stats.admission_timeouts);
  state.counters["writes_applied"] = static_cast<double>(stats.writes_applied);
  state.counters["reads_served"] = static_cast<double>(stats.reads_served);
  state.counters["reads_served_per_snapshot"] =
      stats.snapshots_published > 0
          ? static_cast<double>(stats.reads_served) / stats.snapshots_published
          : 0.0;
  for (int t = 0; t < dyn::kNumReadTiers; ++t) {
    state.counters["shed_tier" + std::to_string(t) + "_rate"] =
        static_cast<double>(stats.reads_tier[t]) / reads;
  }
  state.counters["sessions"] = static_cast<double>(stats.sessions_opened);
  state.counters["faults_injected"] =
      static_cast<double>(totals.faults_injected.load());
  state.counters["deadline_trips"] =
      static_cast<double>(totals.deadline_trips.load());
  state.counters["immutability_rechecks"] =
      static_cast<double>(totals.immutability_rechecks.load());
  state.counters["reconnects"] =
      static_cast<double>(totals.churn_reconnects.load());
  state.SetItemsProcessed(static_cast<int64_t>(requests));
}
// 65536: the CI service-soak gate. 1048576: the quoted >= 1M-request soak.
BENCHMARK(BM_ServiceSoak)
    ->Arg(65536)
    ->Arg(1048576)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// The O(1) claim behind the whole read path: SnapshotView (what every
/// commit pays to publish, and every reader pays nothing extra for) against
/// a full serializing Snapshot of the same state. o1_ratio is their mean
/// time quotient — CI gates it <= 0.05, i.e. publishing is at least 20x
/// cheaper than materializing the state even once.
void BM_SnapshotViewO1(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  dyn::Engine engine(programs::MakeReachUProgram(), n);
  dyn::GraphWorkloadOptions options;
  options.num_requests = 4 * n;
  options.seed = kSoakSeed;
  options.undirected = true;
  const relational::RequestSequence requests = dyn::MakeGraphWorkload(
      *programs::ReachUInputVocabulary(), "E", n, options);
  for (const relational::Request& request : requests) engine.Apply(request);

  using Clock = std::chrono::steady_clock;
  double view_ns = 0;
  double deep_ns = 0;
  uint64_t views = 0;
  uint64_t deeps = 0;
  for (auto _ : state) {
    auto start = Clock::now();
    for (int i = 0; i < 64; ++i) {
      dyn::Engine::StateView view = engine.SnapshotView();
      benchmark::DoNotOptimize(view.version);
      benchmark::DoNotOptimize(view.data);
    }
    view_ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
                   .count();
    views += 64;
    start = Clock::now();
    std::string snapshot = engine.Snapshot();
    benchmark::DoNotOptimize(snapshot.data());
    deep_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    ++deeps;
  }
  const double view_mean = views > 0 ? view_ns / views : 0;
  const double deep_mean = deeps > 0 ? deep_ns / deeps : 1;
  state.counters["snapshot_view_ns"] = view_mean;
  state.counters["deep_snapshot_ns"] = deep_mean;
  state.counters["o1_ratio"] = deep_mean > 0 ? view_mean / deep_mean : 0;
}
BENCHMARK(BM_SnapshotViewO1)->Arg(12)->Arg(48)->Unit(benchmark::kMicrosecond);

}  // namespace

/// --repro=SEED:STREAM — replay one writer stream single-threaded through a
/// fresh service, then run the same oracle replay and bit-identity checks.
int RunServiceRepro(const std::string& spec) {
  const size_t colon = spec.find(':');
  uint64_t seed = 0;
  uint64_t stream = 0;
  if (colon == std::string::npos ||
      !core::ParseU64(spec.substr(0, colon), &seed) ||
      !core::ParseU64(spec.substr(colon + 1), &stream) ||
      stream >= kWriters) {
    std::fprintf(stderr,
                 "error: bad --repro spec '%s' (want SEED:STREAM with STREAM "
                 "< %d)\n",
                 spec.c_str(), kWriters);
    return 2;
  }
  SoakTotals totals;
  dyn::EngineService service(programs::MakeReachUProgram(), kUniverse,
                             SoakOptions());
  // The quoted 1M-request soak's per-stream length; generation draws one
  // request at a time, so the CI soak's shorter stream is a prefix of this.
  const relational::RequestSequence requests =
      MakeStream(16384, StreamSeed(seed, static_cast<int>(stream)));
  RunWriterStream(&service, seed, static_cast<int>(stream), requests, &totals);

  const std::vector<relational::Request>& history = service.applied_history();
  ReadLog empty_log;
  dyn::Engine oracle(programs::MakeReachUProgram(), kUniverse);
  ReplayOracle(history, empty_log,
               "repro seed=" + std::to_string(seed) +
                   " stream=" + std::to_string(stream),
               &oracle);
  DYNFO_CHECK(service.Snapshot() == oracle.Snapshot())
      << "repro seed=" << seed << " stream=" << stream
      << ": state diverged from the history replay";
  std::printf(
      "repro ok: seed=%llu stream=%llu applied=%zu faults=%llu "
      "deadline_trips=%llu\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(stream), history.size(),
      static_cast<unsigned long long>(totals.faults_injected.load()),
      static_cast<unsigned long long>(totals.deadline_trips.load()));
  return 0;
}

}  // namespace dynfo

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repro=", 0) == 0) {
      return dynfo::RunServiceRepro(arg.substr(8));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
