/// \file service_concurrency_test.cc
/// Race coverage for the service read/write paths, aimed at TSan: readers
/// pin SnapshotView versions while writers commit, Restore() replaces the
/// state, and ReloadProgram() recompiles. The assertions are weak on
/// purpose — the point is that every interleaving TSan can provoke is
/// data-race-free and every pinned version stays immutable.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dynfo/service.h"
#include "programs/parity.h"
#include "relational/request.h"

namespace dynfo {
namespace {

using dyn::EngineService;
using relational::Request;

constexpr size_t kUniverse = 16;
constexpr int kReaders = 4;

dyn::ServiceOptions ConcurrencyOptions() {
  dyn::ServiceOptions options;
  options.engine.check_every = 0;
  options.record_applied_history = true;
  return options;
}

/// Pins, queries, and re-checks that the pinned version did not move under
/// the reader's feet while writes raced.
void ReadUntil(EngineService* service, const std::atomic<bool>* stop,
               std::atomic<uint64_t>* reads) {
  while (!stop->load(std::memory_order_acquire)) {
    EngineService::ReadPin pin = service->PinVersion();
    const bool first = service->QueryBool(pin);
    const size_t m_size = pin.data().relation("M").size();
    std::this_thread::yield();
    ASSERT_EQ(service->QueryBool(pin), first);
    ASSERT_EQ(pin.data().relation("M").size(), m_size);
    // Parity invariant ties the answer to the pinned data, not live state.
    ASSERT_EQ(first, m_size % 2 == 1);
    reads->fetch_add(1, std::memory_order_relaxed);
  }
}

/// Lets every reader finish at least one full pin/query cycle after the
/// writers are done, so the counters below are deterministic.
void AwaitReads(const std::atomic<uint64_t>* reads) {
  while (reads->load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
}

TEST(ServiceConcurrencyTest, ReadersRaceWriters) {
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  for (int round = 0; round < 200; ++round) {
    const relational::Element x =
        static_cast<relational::Element>(round % kUniverse);
    ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {x})).ok());
    ASSERT_TRUE(service.Apply(session.value(), Request::Delete("M", {x})).ok());
  }
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.stats().writes_applied, 400u);
  EXPECT_EQ(service.PinVersion().version(), 400u);
}

TEST(ServiceConcurrencyTest, ReadersRaceBatchWriters) {
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  // Two writer sessions contend for the admission queue while batches
  // group-commit; every batch publishes exactly one new version.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&service, w] {
      core::Result<EngineService::SessionId> session = service.OpenSession();
      ASSERT_TRUE(session.ok());
      for (int round = 0; round < 50; ++round) {
        const relational::Element x =
            static_cast<relational::Element>((w * 7 + round) % kUniverse);
        std::vector<Request> batch = {
            Request::Insert("M", {x}),
            Request::Insert("M", {static_cast<relational::Element>(
                                     (x + 1) % kUniverse)}),
            Request::Delete("M", {x}),
            Request::Delete("M", {static_cast<relational::Element>(
                                     (x + 1) % kUniverse)})};
        dyn::BatchReport report;
        ASSERT_TRUE(service.ApplyBatch(session.value(), batch, &report).ok());
        ASSERT_EQ(report.applied, 4u);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.stats().writes_applied, 400u);
  EXPECT_EQ(service.applied_history().size(), 400u);
}

TEST(ServiceConcurrencyTest, ReadersRaceRestore) {
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {1})).ok());
  const std::string odd = service.Snapshot();
  ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {2})).ok());
  const std::string even = service.Snapshot();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(service.Restore(round % 2 == 0 ? odd : even).ok());
  }
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  // Ended on an even round count -> last restore used `even` (2 elements).
  EXPECT_FALSE(service.ReadQueryBool());
}

TEST(ServiceConcurrencyTest, ReadersRaceReloadProgram) {
  std::shared_ptr<const dyn::DynProgram> program =
      programs::MakeParityProgram();
  EngineService service(program, kUniverse, ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {1})).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  for (int round = 0; round < 25; ++round) {
    ASSERT_TRUE(service.ReloadProgram(program).ok());
    ASSERT_TRUE(
        service.Apply(session.value(), Request::Insert("M", {2})).ok());
    ASSERT_TRUE(
        service.Apply(session.value(), Request::Delete("M", {2})).ok());
  }
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(service.ReadQueryBool());
}

TEST(ServiceConcurrencyTest, StatsRaceWriters) {
  // `stats` reads counters the engine and the durable store keep as plain
  // fields; Dispatch must copy them under the writer lock while writers
  // commit.
  const std::string dir = ::testing::TempDir() + "dynfo_service_stats_race";
  std::filesystem::remove_all(dir);
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  ASSERT_TRUE(service.AttachDurability(dir).ok());
  dyn::ServiceServer server(&service, dyn::wire::Address{});
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&server, &service, w] {
      core::Result<EngineService::SessionId> session = service.OpenSession();
      ASSERT_TRUE(session.ok());
      for (int round = 0; round < 40; ++round) {
        const std::string x = std::to_string((w * 7 + round) % kUniverse);
        ASSERT_EQ(server.Dispatch(session.value(), "ins M " + x), "0 ok");
        ASSERT_EQ(server.Dispatch(session.value(), "del M " + x), "0 ok");
      }
    });
  }
  core::Result<EngineService::SessionId> reader = service.OpenSession();
  ASSERT_TRUE(reader.ok());
  for (int round = 0; round < 40; ++round) {
    const std::string stats = server.Dispatch(reader.value(), "stats");
    ASSERT_EQ(stats.rfind("0 sessions=", 0), 0u) << stats;
    ASSERT_NE(stats.find("\nrequests="), std::string::npos) << stats;
    ASSERT_NE(stats.find("\ndurable: appends="), std::string::npos) << stats;
  }
  for (std::thread& t : writers) t.join();

  const std::string stats = server.Dispatch(reader.value(), "stats");
  EXPECT_NE(stats.find("\nrequests=160 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" appends=160 "), std::string::npos) << stats;
  std::filesystem::remove_all(dir);
}

TEST(ServiceConcurrencyTest, PinsRaceReclamation) {
  // Short-lived pins churn against eager reclamation: every release may
  // free a version while another thread is pinning the newest.
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> pinners;
  for (int i = 0; i < kReaders; ++i) {
    pinners.emplace_back([&service, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        EngineService::ReadPin outer = service.PinVersion();
        {
          EngineService::ReadPin inner = service.PinVersion();
          ASSERT_GE(inner.version(), outer.version());
        }
        ASSERT_LE(outer.data().relation("M").size(), kUniverse);
      }
    });
  }
  for (int round = 0; round < 300; ++round) {
    const relational::Element x =
        static_cast<relational::Element>(round % kUniverse);
    ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {x})).ok());
    ASSERT_TRUE(service.Apply(session.value(), Request::Delete("M", {x})).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pinners) t.join();

  EXPECT_EQ(service.retained_versions(), 1u);
  EXPECT_GT(service.stats().snapshots_reclaimed, 0u);
}

}  // namespace
}  // namespace dynfo
