/// \file service_test.cc
/// EngineService + wire protocol: snapshot-isolated reads over CoW
/// versions, epoch-based reclamation, admission control, read-tier
/// shedding, the framed wire grammar, and the retrying client
/// (DESIGN.md §15).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_io.h"
#include "dynfo/loader.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/request.h"

#include <sys/socket.h>
#include <unistd.h>

namespace dynfo {
namespace {

namespace wire = dyn::wire;
using dyn::ChooseReadTier;
using dyn::EngineService;
using dyn::ExecTier;
using relational::Request;

dyn::ServiceOptions TestOptions() {
  dyn::ServiceOptions options;
  options.engine.check_every = 0;
  return options;
}

EngineService::SessionId MustOpen(EngineService* service) {
  core::Result<EngineService::SessionId> session = service->OpenSession();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return session.value();
}

// -- Shed policy -------------------------------------------------------------

TEST(ChooseReadTierTest, ShedsByLoadFactor) {
  // limit 8, shed to naive at 0.75.
  EXPECT_EQ(ChooseReadTier(0, 8, 0.75), ExecTier::kCompiledIndexed);
  EXPECT_EQ(ChooseReadTier(3, 8, 0.75), ExecTier::kCompiledIndexed);
  EXPECT_EQ(ChooseReadTier(5, 8, 0.75), ExecTier::kCompiledIndexed);
  EXPECT_EQ(ChooseReadTier(6, 8, 0.75), ExecTier::kNaive);
  EXPECT_EQ(ChooseReadTier(8, 8, 0.75), ExecTier::kNaive);
  EXPECT_EQ(ChooseReadTier(100, 8, 0.75), ExecTier::kNaive);
}

TEST(ChooseReadTierTest, ZeroLimitDisablesShedding) {
  EXPECT_EQ(ChooseReadTier(1000, 0, 0.75), ExecTier::kCompiledIndexed);
}

TEST(ChooseReadTierTest, ZeroWaitingNeverSheds) {
  EXPECT_EQ(ChooseReadTier(0, 1, 0.0), ExecTier::kCompiledIndexed);
}

// -- Snapshot isolation ------------------------------------------------------

TEST(EngineServiceTest, PinnedReadsAreSnapshotIsolated) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  const EngineService::SessionId session = MustOpen(&service);

  EngineService::ReadPin empty_pin = service.PinVersion();
  EXPECT_EQ(empty_pin.version(), 0u);
  EXPECT_FALSE(service.QueryBool(empty_pin));

  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {3})).ok());
  EngineService::ReadPin odd_pin = service.PinVersion();
  EXPECT_EQ(odd_pin.version(), 1u);
  EXPECT_TRUE(service.QueryBool(odd_pin));

  // The old pin still answers for version 0: the engine's mutations copied
  // on write around the shared base.
  EXPECT_FALSE(service.QueryBool(empty_pin));
  EXPECT_EQ(empty_pin.data().relation("M").size(), 0u);
  EXPECT_EQ(odd_pin.data().relation("M").size(), 1u);
}

TEST(EngineServiceTest, PinnedVersionSurvivesManyLaterWrites) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {0})).ok());

  EngineService::ReadPin pin = service.PinVersion();
  const bool before = service.QueryBool(pin);
  const size_t m_before = pin.data().relation("M").size();
  for (relational::Element x = 1; x < 8; ++x) {
    ASSERT_TRUE(service.Apply(session, Request::Insert("M", {x})).ok());
    ASSERT_TRUE(service.Apply(session, Request::Delete("M", {x})).ok());
  }
  EXPECT_EQ(service.QueryBool(pin), before);
  EXPECT_EQ(pin.data().relation("M").size(), m_before);
  EXPECT_EQ(pin.version(), 1u);
}

TEST(EngineServiceTest, SameVersionPinsShareStorage) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {1})).ok());

  // Publishing and pinning are O(1) because nothing is copied: two pins of
  // one version see literally the same relation storage.
  EngineService::ReadPin a = service.PinVersion();
  EngineService::ReadPin b = service.PinVersion();
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_TRUE(
      a.data().relation("M").SharesStorageWith(b.data().relation("M")));
}

TEST(EngineServiceTest, ReclaimsRetiredVersionsInEpochOrder) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {0})).ok());
  EXPECT_EQ(service.retained_versions(), 1u);  // eager reclamation

  {
    EngineService::ReadPin pin = service.PinVersion();
    ASSERT_TRUE(service.Apply(session, Request::Insert("M", {1})).ok());
    ASSERT_TRUE(service.Apply(session, Request::Insert("M", {2})).ok());
    // The pinned version blocks reclamation of itself (and it is not the
    // newest), so at least two versions are retained while it lives.
    EXPECT_GE(service.retained_versions(), 2u);
    EXPECT_EQ(pin.version(), 1u);
  }
  // Releasing the pin frees everything but the newest.
  EXPECT_EQ(service.retained_versions(), 1u);
  const dyn::ServiceStats stats = service.stats();
  EXPECT_GT(stats.snapshots_reclaimed, 0u);
  EXPECT_EQ(stats.snapshots_published, 4u);  // construction + 3 writes
}

// -- Admission control -------------------------------------------------------

TEST(EngineServiceTest, RejectsWritersOverTheAdmissionBound) {
  dyn::ServiceOptions options = TestOptions();
  options.admission_queue_limit = 2;
  EngineService service(programs::MakeParityProgram(), 8, options);
  const EngineService::SessionId session = MustOpen(&service);

  service.InjectWaitingWritersForTest(2);
  core::Status status = service.Apply(session, Request::Insert("M", {0}));
  EXPECT_EQ(status.code(), core::StatusCode::kResourceExhausted);
  service.InjectWaitingWritersForTest(0);

  EXPECT_EQ(service.stats().admission_rejections, 1u);
  EXPECT_EQ(service.stats().writes_applied, 0u);
  // Under the bound the same write goes through.
  EXPECT_TRUE(service.Apply(session, Request::Insert("M", {0})).ok());
}

TEST(EngineServiceTest, WaitingWriterGivesUpAtItsDeadline) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  dyn::ApplyGovernance tight;
  tight.deadline_ms = 30;
  core::Result<EngineService::SessionId> session = service.OpenSession(tight);
  ASSERT_TRUE(session.ok());

  std::unique_ptr<EngineService::WriterGate> gate =
      service.PauseWritersForTest();
  core::Status status;
  std::thread writer([&] {
    status = service.Apply(session.value(), Request::Insert("M", {0}));
  });
  writer.join();
  gate.reset();

  EXPECT_EQ(status.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().admission_timeouts, 1u);
  // The lock is free again: the write now succeeds.
  EXPECT_TRUE(service.Apply(session.value(), Request::Insert("M", {0})).ok());
}

TEST(EngineServiceTest, ReadsShedTiersUnderWriterPressure) {
  dyn::ServiceOptions options = TestOptions();
  options.admission_queue_limit = 4;
  options.shed_naive_at = 0.75;
  EngineService service(programs::MakeParityProgram(), 8, options);

  EXPECT_EQ(service.PinVersion().tier(), ExecTier::kCompiledIndexed);
  service.InjectWaitingWritersForTest(2);
  EXPECT_EQ(service.PinVersion().tier(), ExecTier::kCompiledIndexed);
  service.InjectWaitingWritersForTest(3);
  EXPECT_EQ(service.PinVersion().tier(), ExecTier::kNaive);
  service.InjectWaitingWritersForTest(0);
  EXPECT_EQ(service.PinVersion().tier(), ExecTier::kCompiledIndexed);

  // Reads are never refused, whatever the tier; results agree across tiers.
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {5})).ok());
  service.InjectWaitingWritersForTest(4);
  EngineService::ReadPin naive = service.PinVersion();
  EXPECT_EQ(naive.tier(), ExecTier::kNaive);
  EXPECT_TRUE(service.QueryBool(naive));
  service.InjectWaitingWritersForTest(0);
  EXPECT_TRUE(service.ReadQueryBool());

  const dyn::ServiceStats stats = service.stats();
  EXPECT_GT(stats.reads_tier[static_cast<int>(ExecTier::kNaive)], 0u);
  EXPECT_EQ(stats.reads_tier[1], 0u);  // the retired compiled tier's slot
}

TEST(EngineServiceTest, EnforcesTheSessionLimit) {
  dyn::ServiceOptions options = TestOptions();
  options.max_sessions = 2;
  EngineService service(programs::MakeParityProgram(), 8, options);
  core::Result<EngineService::SessionId> a = service.OpenSession();
  core::Result<EngineService::SessionId> b = service.OpenSession();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  core::Result<EngineService::SessionId> c = service.OpenSession();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), core::StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().sessions_rejected, 1u);
  // Closing one admits the next.
  service.CloseSession(a.value());
  EXPECT_TRUE(service.OpenSession().ok());
}

// -- Writer-path state replacement -------------------------------------------

TEST(EngineServiceTest, RestoreRepublishesButKeepsPinnedReaders) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {1})).ok());
  const std::string odd_state = service.Snapshot();

  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {2})).ok());
  EngineService::ReadPin even_pin = service.PinVersion();
  EXPECT_FALSE(service.QueryBool(even_pin));

  ASSERT_TRUE(service.Restore(odd_state).ok());
  // New readers pin the restored state; the held pin keeps its own.
  EXPECT_TRUE(service.ReadQueryBool());
  EXPECT_FALSE(service.QueryBool(even_pin));
  EXPECT_EQ(even_pin.data().relation("M").size(), 2u);
}

TEST(EngineServiceTest, StartOverAfterRestoreDoesNotUndoTheRestore) {
  // Every rung above start-over fails, so each write rebuilds from the
  // wrapper's input shadow. A restore leaves no trusted input to rebuild
  // from: the write after it must fail, not resurrect pre-restore tuples.
  dyn::ServiceOptions options = TestOptions();
  options.engine.governance.inject_for_test = [](ExecTier) {
    return core::Status::ResourceExhausted("injected");
  };
  EngineService service(programs::MakeParityProgram(), 8, options);
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {1})).ok());
  const std::string one = service.Snapshot();
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {2})).ok());
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {3})).ok());
  ASSERT_TRUE(service.Restore(one).ok());

  const core::Status applied = service.Apply(session, Request::Insert("M", {5}));
  EXPECT_EQ(applied.code(), core::StatusCode::kError) << applied.ToString();
  EXPECT_NE(applied.message().find("input structure"), std::string::npos)
      << applied.ToString();
  EXPECT_EQ(service.PinVersion().data().relation("M").ToString(), "{(1)}");
  EXPECT_EQ(service.recovery_stats().requests, 1u);
}

TEST(EngineServiceTest, RestoreIsRefusedOnADurableService) {
  const std::string dir = ::testing::TempDir() + "dynfo_service_restore_refused";
  std::filesystem::remove_all(dir);
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  ASSERT_TRUE(service.AttachDurability(dir).ok());
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {1})).ok());
  const std::string one = service.Snapshot();
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {2})).ok());

  // Every file's name and bytes, before and after the refused restore.
  const auto store_files = [&dir] {
    std::map<std::string, std::string> files;
    const core::Result<std::vector<std::string>> names = core::ListDir(dir);
    for (const std::string& name : names.value()) {
      files[name] = core::ReadFileToString(dir + "/" + name).value();
    }
    return files;
  };
  const std::map<std::string, std::string> before = store_files();
  const core::Status restored = service.Restore(one);
  EXPECT_EQ(restored.code(), core::StatusCode::kError) << restored.ToString();
  EXPECT_EQ(store_files(), before);
  EXPECT_EQ(service.PinVersion().data().relation("M").size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(EngineServiceTest, ReloadProgramKeepsPinnedProgramAlive) {
  std::shared_ptr<const dyn::DynProgram> program =
      programs::MakeParityProgram();
  EngineService service(program, 8, TestOptions());
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {1})).ok());

  EngineService::ReadPin pin = service.PinVersion();
  const dyn::DynProgram* pinned_program = &pin.program();
  // Reloading the same program object recompiles; a pinned reader keeps
  // both its data and its program for the duration of the pin.
  ASSERT_TRUE(service.ReloadProgram(program).ok());
  EXPECT_EQ(&pin.program(), pinned_program);
  EXPECT_TRUE(service.QueryBool(pin));
  EXPECT_TRUE(service.ReadQueryBool());
}

// -- Applied history and batches ---------------------------------------------

TEST(EngineServiceTest, RecordsAppliedHistoryInCommitOrder) {
  dyn::ServiceOptions options = TestOptions();
  options.record_applied_history = true;
  EngineService service(programs::MakeParityProgram(), 8, options);
  const EngineService::SessionId session = MustOpen(&service);

  ASSERT_TRUE(service.Apply(session, Request::Insert("M", {0})).ok());
  std::vector<Request> batch = {Request::Insert("M", {1}),
                                Request::Insert("M", {2})};
  dyn::BatchReport report;
  ASSERT_TRUE(service.ApplyBatch(session, batch, &report).ok());
  EXPECT_EQ(report.applied, 2u);

  const std::vector<Request>& history = service.applied_history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].tuple, relational::Tuple({0}));
  EXPECT_EQ(history[2].tuple, relational::Tuple({2}));
  // The newest published version is exactly the history length.
  EXPECT_EQ(service.PinVersion().version(), history.size());
}

// -- Wire protocol -----------------------------------------------------------

TEST(WireTest, ParsesAddresses) {
  wire::Address address;
  std::string error;
  ASSERT_TRUE(wire::ParseAddress("unix:/tmp/x.sock", &address, &error));
  EXPECT_EQ(address.kind, wire::Address::Kind::kUnix);
  EXPECT_EQ(address.path, "/tmp/x.sock");

  ASSERT_TRUE(wire::ParseAddress("tcp:0", &address, &error));
  EXPECT_EQ(address.kind, wire::Address::Kind::kTcp);
  EXPECT_EQ(address.port, 0);

  ASSERT_TRUE(wire::ParseAddress("tcp:10.0.0.1:4444", &address, &error));
  EXPECT_EQ(address.host, "10.0.0.1");
  EXPECT_EQ(address.port, 4444);

  EXPECT_FALSE(wire::ParseAddress("quic:1234", &address, &error));
  EXPECT_FALSE(wire::ParseAddress("tcp:notaport", &address, &error));
  EXPECT_FALSE(wire::ParseAddress("unix:", &address, &error));
}

TEST(WireTest, ResponseRoundTrip) {
  int code = -1;
  std::string body;
  ASSERT_TRUE(wire::DecodeResponse(wire::EncodeResponse(0, "ok"), &code, &body));
  EXPECT_EQ(code, 0);
  EXPECT_EQ(body, "ok");
  ASSERT_TRUE(wire::DecodeResponse(wire::EncodeResponse(5, "full"), &code, &body));
  EXPECT_EQ(code, 5);
  EXPECT_EQ(body, "full");
  EXPECT_FALSE(wire::DecodeResponse("not a response", &code, &body));
}

TEST(WireTest, ExitCodesRoundTripTheStatusTaxonomy) {
  const core::StatusCode codes[] = {
      core::StatusCode::kOk, core::StatusCode::kError,
      core::StatusCode::kCancelled, core::StatusCode::kDeadlineExceeded,
      core::StatusCode::kResourceExhausted, core::StatusCode::kCorruption};
  for (core::StatusCode code : codes) {
    EXPECT_EQ(wire::StatusCodeForExit(wire::ExitCodeFor(code)), code);
  }
  EXPECT_EQ(wire::ExitCodeFor(core::StatusCode::kResourceExhausted), 5);
}

TEST(WireTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string payload = "ins E 0 1\nins E 1 2";
  ASSERT_TRUE(wire::WriteFrame(fds[1], payload).ok());
  ASSERT_TRUE(wire::WriteFrame(fds[1], "").ok());  // empty frame is legal
  std::string read_back;
  ASSERT_TRUE(wire::ReadFrame(fds[0], &read_back).ok());
  EXPECT_EQ(read_back, payload);
  ASSERT_TRUE(wire::ReadFrame(fds[0], &read_back).ok());
  EXPECT_EQ(read_back, "");
  close(fds[1]);
  core::Status eof = wire::ReadFrame(fds[0], &read_back);
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(wire::IsEof(eof));
  close(fds[0]);
}

TEST(WireTest, OversizedFrameIsRejectedNotAllocated) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(write(fds[1], huge, 4), 4);
  std::string payload;
  core::Status status = wire::ReadFrame(fds[0], &payload);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(wire::IsEof(status));
  close(fds[0]);
  close(fds[1]);
}

TEST(WireTest, BackoffGrowsExponentiallyWithJitterFloor) {
  wire::RetryPolicy policy;
  policy.initial_backoff_ms = 4;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 64;
  core::Rng rng(7);
  int previous_cap = 0;
  for (int retry = 0; retry < 8; ++retry) {
    const int cap = std::min(
        policy.max_backoff_ms,
        static_cast<int>(policy.initial_backoff_ms * (1 << retry)));
    for (int i = 0; i < 32; ++i) {
      const int ms = wire::BackoffMs(policy, retry, &rng);
      EXPECT_GE(ms, cap / 2);
      EXPECT_LE(ms, cap);
    }
    EXPECT_GE(cap, previous_cap);
    previous_cap = cap;
  }
}

// -- Server + client end to end ----------------------------------------------

class ServiceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dyn::ServiceOptions options;
    options.engine.check_every = 0;
    service_.emplace(programs::MakeReachUProgram(), 8, options);
    wire::Address address;
    address.kind = wire::Address::Kind::kTcp;
    address.port = 0;  // kernel-assigned
    server_.emplace(&*service_, address);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    server_->Stop();
    server_.reset();
    service_.reset();
  }

  std::optional<EngineService> service_;
  std::optional<dyn::ServiceServer> server_;
};

TEST_F(ServiceServerTest, ServesTheScriptGrammarOverTheWire) {
  wire::Client client(server_->address());
  wire::Response response;

  ASSERT_TRUE(client.Call("ping", &response).ok());
  EXPECT_EQ(response.body, "pong");

  ASSERT_TRUE(client.Call("ins E 0 1", &response).ok());
  ASSERT_TRUE(client.Call("ins E 1 2", &response).ok());
  ASSERT_TRUE(client.Call("set s 0", &response).ok());
  ASSERT_TRUE(client.Call("set t 2", &response).ok());

  ASSERT_TRUE(client.Call("query", &response).ok());
  EXPECT_EQ(response.body.rfind("true", 0), 0u) << response.body;
  EXPECT_NE(response.body.find("v=4"), std::string::npos) << response.body;

  // A batch travels as one frame and lands as one group commit.
  ASSERT_TRUE(
      client.Call("batch\ndel E 0 1\ndel E 1 2\nend", &response).ok());
  EXPECT_NE(response.body.find("applied=2"), std::string::npos)
      << response.body;
  ASSERT_TRUE(client.Call("query", &response).ok());
  EXPECT_EQ(response.body.rfind("false", 0), 0u) << response.body;

  ASSERT_TRUE(client.Call("stats", &response).ok());
  EXPECT_NE(response.body.find("writes_applied=6"), std::string::npos)
      << response.body;
}

TEST_F(ServiceServerTest, MapsErrorsToTheExitCodeTaxonomy) {
  wire::Client client(server_->address());
  wire::Response response;

  // Usage errors are wire code 2 and do not retry.
  core::Status status = client.Call("frobnicate", &response);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(response.code, 2);
  status = client.Call("ins E zz", &response);  // unparseable element
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(response.code, 2);
  status = client.Call("batch\nins E 0 1", &response);  // unclosed block
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(response.code, 2);
  status = client.Call("ins E 1 2 3 4 5", &response);  // wider than any tuple
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(response.code, 2);
  // Engine-level rejections are code 1 (error): validation catches an
  // out-of-universe element and an arity mismatch at Apply time.
  status = client.Call("ins E 0 99", &response);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(response.code, 1);
  status = client.Call("ins E 0", &response);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(response.code, 1);
  // The connection is still usable afterwards.
  ASSERT_TRUE(client.Call("ping", &response).ok());
  EXPECT_EQ(client.counters().reconnects, 0u);
}

TEST_F(ServiceServerTest, JoinsFinishedConnectionThreads) {
  constexpr uint64_t kConnections = 64;
  wire::Response response;
  for (uint64_t i = 0; i < kConnections; ++i) {
    wire::Client client(server_->address());
    ASSERT_TRUE(client.Call("ping", &response).ok());
  }
  // A connection marks its thread finished before it closes its session.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service_->stats().sessions_closed < kConnections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service_->stats().sessions_closed, kConnections);
  // The next accept joins every finished thread; only the live one stays.
  wire::Client client(server_->address());
  ASSERT_TRUE(client.Call("ping", &response).ok());
  EXPECT_EQ(server_->connections_accepted(), kConnections + 1);
  EXPECT_EQ(server_->connection_threads(), 1u);
}

TEST_F(ServiceServerTest, HardCloseReconnectsTransparently) {
  wire::Client client(server_->address());
  wire::Response response;
  ASSERT_TRUE(client.Call("ins E 0 1", &response).ok());
  client.HardClose();
  ASSERT_TRUE(client.Call("query", &response).ok());
  EXPECT_EQ(client.counters().reconnects, 1u);
  EXPECT_GE(server_->connections_accepted(), 2u);
}

TEST(WireClientTest, RetriesAdmissionRejectionsWithBackoff) {
  // A fake server that rejects twice with wire code 5, then accepts: the
  // client must resubmit through its backoff and succeed.
  wire::Address address;
  address.kind = wire::Address::Kind::kTcp;
  address.port = 0;
  core::Result<int> listener = wire::Listen(address);
  ASSERT_TRUE(listener.ok());
  core::Result<int> port = wire::BoundPort(listener.value());
  ASSERT_TRUE(port.ok());
  address.port = port.value();

  std::thread fake_server([fd = listener.value()] {
    for (int call = 0; call < 3; ++call) {
      int conn = accept(fd, nullptr, nullptr);
      if (conn < 0) return;
      std::string request;
      while (wire::ReadFrame(conn, &request).ok()) {
        const int code = call < 2 ? 5 : 0;
        wire::WriteFrame(conn, wire::EncodeResponse(code, call < 2
                                                              ? "queue full"
                                                              : "ok"));
        if (code == 0) break;
        ++call;
      }
      close(conn);
      if (call >= 2) break;
    }
  });

  wire::RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  wire::Client client(address, policy);
  wire::Response response;
  core::Status status = client.Call("ins E 0 1", &response);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(response.code, 0);
  EXPECT_EQ(client.counters().resource_retries, 2u);

  close(listener.value());
  fake_server.join();
}

TEST_F(ServiceServerTest, DispatchAnswersEvalAndShow) {
  // Dispatch is the grammar without the socket: drive it directly.
  core::Result<EngineService::SessionId> session = service_->OpenSession();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(server_->Dispatch(session.value(), "ins E 0 1"),
            wire::EncodeResponse(0, "ok"));
  const std::string shown = server_->Dispatch(session.value(), "show E");
  EXPECT_EQ(shown.rfind("0 ", 0), 0u) << shown;
  EXPECT_NE(shown.find("(0, 1)"), std::string::npos) << shown;
  const std::string eval =
      server_->Dispatch(session.value(), "eval E(0, 1)");
  EXPECT_EQ(eval.rfind("0 true", 0), 0u) << eval;
  // Free variables are a usage error, not a crash.
  const std::string open_formula =
      server_->Dispatch(session.value(), "eval E(x, y)");
  EXPECT_EQ(open_formula.rfind("2 ", 0), 0u) << open_formula;
}

TEST(ServiceDispatchTest, ReadsMissingTheirParametersAreUsageErrors) {
  core::Result<std::shared_ptr<const dyn::DynProgram>> program =
      dyn::LoadProgramFromText(
          "program params\n"
          "input {\n  relation E/2\n}\n"
          "data {\n  relation E/2\n}\n"
          "query := E($0, $1)\n"
          "query adj(y) := E($0, y)\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineService service(program.value(), 8, TestOptions());
  dyn::ServiceServer server(&service, wire::Address{});
  const EngineService::SessionId session = MustOpen(&service);
  ASSERT_EQ(server.Dispatch(session, "ins E 1 2"), wire::EncodeResponse(0, "ok"));

  // Too few elements for the parameters the read uses, or an element
  // outside the universe: code 2, not an abort.
  for (const char* read : {"query", "query 1", "query 100 2", "show adj",
                           "eval E($0, 2)"}) {
    const std::string response = server.Dispatch(session, read);
    EXPECT_EQ(response.rfind("2 ", 0), 0u) << read << " -> " << response;
  }
  EXPECT_EQ(server.Dispatch(session, "query 1 2").rfind("0 true", 0), 0u);
  const std::string adj = server.Dispatch(session, "show adj 1");
  EXPECT_EQ(adj.rfind("0 ", 0), 0u) << adj;
  EXPECT_NE(adj.find("(2)"), std::string::npos) << adj;
}

TEST(ServiceDispatchTest, DeadlinesPastTheClockNeverExpire) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  dyn::ServiceServer server(&service, wire::Address{});
  const EngineService::SessionId session = MustOpen(&service);
  // Beyond the clock's range (about 9.2e12 ms): accepted, never expires.
  ASSERT_EQ(server.Dispatch(session, "deadline 9300000000000"),
            wire::EncodeResponse(0, "ok"));
  EXPECT_EQ(server.Dispatch(session, "ins M 1"), wire::EncodeResponse(0, "ok"));
  ASSERT_EQ(server.Dispatch(session, "deadline 9223372036854775807"),
            wire::EncodeResponse(0, "ok"));
  EXPECT_EQ(server.Dispatch(session, "ins M 2"), wire::EncodeResponse(0, "ok"));
  // Beyond int64 it would wrap to "already expired": a usage error, and
  // the session keeps its previous deadline.
  const std::string wrapped = server.Dispatch(session, "deadline 18446744073709551615");
  EXPECT_EQ(wrapped.rfind("2 ", 0), 0u) << wrapped;
  EXPECT_EQ(server.Dispatch(session, "ins M 3"), wire::EncodeResponse(0, "ok"));
  EXPECT_EQ(service.stats().admission_timeouts, 0u);
}

TEST(ServiceDispatchTest, DeeplyNestedEvalIsAUsageErrorAndTheServerLives) {
  EngineService service(programs::MakeParityProgram(), 8, TestOptions());
  dyn::ServiceServer server(&service, wire::Address{});
  const EngineService::SessionId session = MustOpen(&service);
  // 5000 nested parentheses: far past the parser's nesting limit, and deep
  // enough to overflow its stack if it recursed into all of them.
  const std::string frame =
      "eval " + std::string(5000, '(') + "M(0)" + std::string(5000, ')');
  const std::string response = server.Dispatch(session, frame);
  EXPECT_EQ(response.rfind("2 ", 0), 0u) << response.substr(0, 80);
  EXPECT_EQ(server.Dispatch(session, "ping"), wire::EncodeResponse(0, "pong"));
}

TEST(ServiceDispatchTest, QueryWithoutABooleanQueryIsAUsageError) {
  core::Result<std::shared_ptr<const dyn::DynProgram>> program =
      dyn::LoadProgramFromText(
          "program named_only\n"
          "input {\n  relation E/2\n}\n"
          "data {\n  relation E/2\n}\n"
          "query adj(y) := E($0, y)\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineService service(program.value(), 8, TestOptions());
  dyn::ServiceServer server(&service, wire::Address{});
  const std::string response = server.Dispatch(MustOpen(&service), "query");
  EXPECT_EQ(response.rfind("2 ", 0), 0u) << response;
}

}  // namespace
}  // namespace dynfo
