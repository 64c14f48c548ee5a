/// \file service.h
/// Engine-as-a-service: many sessions over one engine (DESIGN.md §15).
///
/// Dyn-FO's premise is that updates are cheap enough to answer queries
/// *while the structure changes*. The service makes that literal:
///
///   * Writers serialize through the GuardedEngine (validation, journal,
///     governed apply, degradation ladder) behind one writer lock.
///   * Readers never take that lock: each committed write publishes an O(1)
///     Engine::SnapshotView() — a copy-on-write Structure copy — into a
///     version list, and a reader pins the newest version for the duration
///     of its query. Pinned versions are immutable (the engine's own
///     mutations copy-on-write around any shared base), so reads are
///     snapshot-isolated at a single version: exactly the state after the
///     pinned number of requests.
///   * Reclamation is epoch-based: versions retire strictly in publish
///     order, and a version is freed only when it is not the newest and no
///     reader pins it or any older version. No reader ever observes a
///     freed version; a stalled reader delays reclamation, never safety.
///   * Admission control reuses governance: a bounded queue of waiting
///     writers — one past the bound is rejected immediately with
///     kResourceExhausted (wire code 5, the client's retry signal) — and a
///     waiting writer gives up at its session deadline with
///     kDeadlineExceeded. Reads are never refused, and writer load never
///     changes how they run: ReadTierFor picks each read's evaluator from
///     its formula alone, and Dispatch runs reads under the session's
///     deadline.
///
/// ServiceServer::Dispatch is the one interpreter of the script grammar:
/// dynfo_server runs it per connection, and dynfo_cli runs it in process
/// on a socketless ServiceServer, so both front ends answer every command
/// alike (wire::RunScript prints the answers).

#ifndef DYNFO_DYNFO_SERVICE_H_
#define DYNFO_DYNFO_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynfo/recovery.h"
#include "dynfo/wire.h"
#include "fo/eval_algebra.h"

namespace dynfo::dyn {

/// Read tiers are ExecTier values below kStartOver (reads have nothing to
/// rebuild — they only look): compiled+indexed or naive. Slot 1 of
/// ServiceStats::reads_tier is the retired compiled tier's and reads 0.
inline constexpr int kNumReadTiers = 3;

/// The evaluator a service read runs, decided by its formula alone: a point
/// probe (no quantifiers, no free variables) reads naive, by lookups that
/// need no index; every other formula runs its compiled plan.
ExecTier ReadTierFor(const fo::Formula& formula);

struct ServiceOptions {
  GuardedEngineOptions engine;
  /// OpenSession beyond this count is rejected with kResourceExhausted.
  size_t max_sessions = 64;
  /// Writers allowed to WAIT for the writer lock; one more is rejected
  /// immediately (kResourceExhausted) instead of queueing. 0 = unbounded.
  size_t admission_queue_limit = 8;
  /// Record every applied request in commit order — the soak's oracle
  /// source: replaying history[0..v) through a fresh engine reproduces the
  /// exact state any reader pinned at version v. (The journal cannot serve
  /// this: it is an intent log and may hold rejected requests.)
  bool record_applied_history = false;
};

/// The options dynfo_cli and dynfo_server start from: the auto backend
/// (the density cost model picks hash or dense per relation) and no
/// cadence checks, since the tools have no oracle.
ServiceOptions ToolServiceOptions();

/// Parses one of the flags dynfo_cli and dynfo_server share into `options`:
/// --backend=auto|hash|dense, --deadline-ms=N (at most 2^63-1) and
/// --max-memory-mb=N (the service-wide governance). Returns false when
/// `arg` is none of them; a malformed value returns true with `error` set.
bool ParseEngineFlag(const std::string& arg, ServiceOptions* options,
                     std::string* error);

/// Monotone counters; read with stats() (a coherent-enough snapshot — each
/// counter is individually atomic).
struct ServiceStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_rejected = 0;   ///< OpenSession over max_sessions
  uint64_t writes_applied = 0;      ///< requests applied (batch members count)
  uint64_t write_calls_failed = 0;  ///< Apply/ApplyBatch calls ending non-OK
  uint64_t admission_rejections = 0;  ///< typed kResourceExhausted rejections
  uint64_t admission_timeouts = 0;  ///< waiters that hit their deadline
  uint64_t reads_served = 0;
  uint64_t reads_tier[kNumReadTiers] = {0, 0, 0};  ///< by ExecTier index
  uint64_t snapshots_published = 0;
  uint64_t snapshots_reclaimed = 0;
};

/// One engine, many sessions. All public methods are thread-safe.
class EngineService {
 public:
  using SessionId = uint64_t;

  /// A published snapshot: the copy-on-write state after exactly `version`
  /// requests, with the program that produced it (kept alive here so a
  /// pinned reader survives ReloadProgram). Internal to the service; public
  /// only so ReadPin's inline accessors see a complete type.
  struct Version {
    Version(relational::Structure d, uint64_t v, uint64_t e,
            std::shared_ptr<const DynProgram> p)
        : data(std::move(d)), version(v), epoch(e), program(std::move(p)) {}
    relational::Structure data;
    uint64_t version;
    uint64_t epoch;  ///< publish order; reclamation retires epochs in order
    std::shared_ptr<const DynProgram> program;
    std::atomic<uint64_t> pins{0};
  };

  /// `oracle`/`invariant` feed the GuardedEngine's cadence checks; null
  /// disables them (options.engine.check_every notwithstanding).
  EngineService(std::shared_ptr<const DynProgram> program,
                size_t universe_size, ServiceOptions options = {},
                Oracle oracle = nullptr, InvariantCheck invariant = nullptr);

  // -- Sessions ------------------------------------------------------------

  /// Opens a session whose writes run under `governance` (deadline, budget);
  /// an inactive governance inherits the service-wide policy.
  /// kResourceExhausted over max_sessions.
  core::Result<SessionId> OpenSession(ApplyGovernance governance = {});
  void CloseSession(SessionId session);
  /// Replaces a live session's governance (wire `deadline` command).
  core::Status SetSessionGovernance(SessionId session,
                                    const ApplyGovernance& governance);
  /// The governance `session`'s requests run under: its own when active,
  /// the service-wide policy otherwise.
  ApplyGovernance SessionGovernance(SessionId session);

  // -- Writes (serialized; admission-controlled) ---------------------------

  core::Status Apply(SessionId session, const relational::Request& request);
  core::Status ApplyBatch(SessionId session,
                          std::span<const relational::Request> requests,
                          BatchReport* report = nullptr);

  /// Writer-path state replacement: GuardedEngine::Restore under the
  /// writer lock (refused while a durable store is attached), then a
  /// republish so subsequent readers pin the restored state. Readers
  /// already pinned keep their pre-restore version — snapshot isolation
  /// holds across restores.
  core::Status Restore(const std::string& snapshot);

  /// Attaches the durable store at `dir` under the writer lock
  /// (GuardedEngine::AttachDurability: a store already in `dir` is revived)
  /// and republishes, so readers pin the revived state. Call it before the
  /// first write; on an error the service must be discarded.
  core::Status AttachDurability(const std::string& dir,
                                DurableStoreOptions options = {});

  /// Checkpoints the attached durable store now (GuardedEngine::Compact).
  core::Status Compact();

  /// Writer-path program swap (Engine::ReloadProgram: same vocabulary
  /// objects). Published versions each carry the program they were built
  /// under, so pinned readers keep evaluating against the old program.
  core::Status ReloadProgram(std::shared_ptr<const DynProgram> program);

  /// Serializing engine snapshot of the live state (writer-path; the CLI's
  /// `snapshot` command and the soak's bit-identical final check).
  std::string Snapshot();

  // -- Reads (never take the writer lock; snapshot-isolated) ---------------

  /// A pinned version, immutable until released. Movable RAII.
  class ReadPin {
   public:
    ReadPin(ReadPin&& other) noexcept
        : service_(std::exchange(other.service_, nullptr)),
          version_(std::move(other.version_)) {}
    ReadPin& operator=(ReadPin&& other) noexcept {
      if (this != &other) {
        Release();
        service_ = std::exchange(other.service_, nullptr);
        version_ = std::move(other.version_);
      }
      return *this;
    }
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;
    ~ReadPin() { Release(); }

    const relational::Structure& data() const { return version_->data; }
    uint64_t version() const { return version_->version; }
    uint64_t epoch() const { return version_->epoch; }
    const DynProgram& program() const { return *version_->program; }

    void Release();

   private:
    friend class EngineService;
    ReadPin(EngineService* service, std::shared_ptr<Version> version)
        : service_(service), version_(std::move(version)) {}

    EngineService* service_ = nullptr;
    std::shared_ptr<Version> version_;
  };

  /// Pins the newest published version. Never fails, never blocks on the
  /// writer lock.
  ReadPin PinVersion();

  /// Queries against a pinned version, through the evaluator ReadTierFor
  /// picks. Thread-safe across any number of concurrent readers (and the
  /// writer): evaluation reads the pinned structure only, through a shared
  /// thread-safe evaluator. After a `governor` trip a boolean answer means
  /// nothing; QueryRelation returns the trip.
  bool QueryBool(const ReadPin& pin,
                 std::vector<relational::Element> params = {},
                 const core::ExecGovernor* governor = nullptr) const;
  bool QuerySentence(const ReadPin& pin, const fo::FormulaPtr& sentence,
                     std::vector<relational::Element> params = {},
                     const core::ExecGovernor* governor = nullptr) const;
  core::Result<relational::Relation> QueryRelation(
      const ReadPin& pin, const std::string& name,
      std::vector<relational::Element> params = {},
      const core::ExecGovernor* governor = nullptr) const;

  /// Pin + QueryBool + release in one call.
  bool ReadQueryBool(std::vector<relational::Element> params = {});

  // -- Introspection -------------------------------------------------------

  ServiceStats stats() const;

  /// Counters the engine and the durable store keep as plain fields,
  /// which only the writer may touch; writer_stats() copies them under the
  /// writer lock.
  struct WriterStats {
    Engine::Stats engine;
    fo::EvalStats eval;
    /// Each data relation's name and whether it is stored dense.
    std::vector<std::pair<std::string, bool>> dense;
    std::optional<DurableStore::Counters> durable;  ///< when attached
  };
  WriterStats writer_stats();

  /// Published versions currently retained (>= 1: the newest).
  size_t retained_versions() const;
  const ServiceOptions& options() const { return options_; }
  const RecoveryStats& recovery_stats() const {
    return guarded_.recovery_stats();
  }
  /// The applied history (requires record_applied_history). Safe to read
  /// only when no writer is active (e.g. post-soak, after joining every
  /// session thread).
  const std::vector<relational::Request>& applied_history() const {
    return applied_history_;
  }

  /// Test hook: holds the writer lock until destroyed, so tests can force
  /// deterministic admission-queue pressure.
  class WriterGate {
   public:
    explicit WriterGate(EngineService* service) : service_(service) {
      service_->writer_mutex_.lock();
    }
    ~WriterGate() { service_->writer_mutex_.unlock(); }
    WriterGate(const WriterGate&) = delete;
    WriterGate& operator=(const WriterGate&) = delete;

   private:
    EngineService* service_;
  };
  std::unique_ptr<WriterGate> PauseWritersForTest() {
    return std::make_unique<WriterGate>(this);
  }
  /// Test hook: pretend `n` writers are waiting (admission only).
  void InjectWaitingWritersForTest(size_t n) {
    waiting_writers_.store(n, std::memory_order_relaxed);
  }

 private:
  /// Bounded admission + deadline-bounded wait for the writer lock. On OK
  /// the caller holds writer_mutex_ and MUST call FinishWrite.
  core::Status AdmitWriter(const ApplyGovernance& governance);
  /// Optionally publishes the engine's current state (writer lock held),
  /// then unlocks and reclaims.
  void FinishWrite(bool publish);
  void PublishLocked();
  void Reclaim();
  /// Installs `governance` into the guarded engine's policy for this write
  /// (writer lock held).
  void SetWriteGovernanceLocked(const ApplyGovernance& governance);

  ServiceOptions options_;
  GuardedEngine guarded_;

  /// Writer serialization with deadline-bounded acquisition. A waiter can
  /// give up at its session deadline without a ticket-queue abandonment
  /// problem. Built on mutex + condition_variable rather than
  /// std::timed_mutex: libstdc++ lowers timed_mutex::try_lock_for to
  /// pthread_mutex_clocklock, which ThreadSanitizer does not intercept
  /// (a successful timed acquisition is invisible and the later unlock is
  /// reported as "unlock of an unlocked mutex"), and unlike timed_mutex
  /// this lock is not UB to reacquire from the releasing thread.
  class WriterLock {
   public:
    void lock() { (void)try_lock_until(core::Deadline::Infinite()); }
    /// Waits until the lock is free or `deadline` expires (an infinite one
    /// never does); false on expiry.
    bool try_lock_until(const core::Deadline& deadline) {
      std::unique_lock<std::mutex> guard(mutex_);
      const auto free = [this] { return !held_; };
      if (deadline.is_infinite()) {
        cv_.wait(guard, free);
      } else if (!cv_.wait_until(guard, deadline.when(), free)) {
        return false;
      }
      held_ = true;
      return true;
    }
    void unlock() {
      {
        std::lock_guard<std::mutex> guard(mutex_);
        held_ = false;
      }
      cv_.notify_one();
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool held_ = false;
  };
  WriterLock writer_mutex_;
  std::atomic<size_t> waiting_writers_{0};

  /// Published versions, oldest first; back() is the newest. Guarded by
  /// versions_mutex_ (pin/publish/reclaim are short critical sections).
  mutable std::mutex versions_mutex_;
  std::deque<std::shared_ptr<Version>> versions_;
  uint64_t next_epoch_ = 0;

  std::mutex sessions_mutex_;
  std::map<SessionId, ApplyGovernance> sessions_;
  SessionId next_session_ = 1;

  /// Shared read-path evaluator: thread-safe for concurrent Sat (atomic
  /// stats, mutex-guarded plan cache), separate from the engine's own so
  /// reader traffic never contends with the write path's cache.
  mutable fo::AlgebraEvaluator read_algebra_;

  std::vector<relational::Request> applied_history_;  ///< writer lock held

  // Counters (relaxed: monotone telemetry, no ordering needed; mutable so
  // const read paths can count themselves).
  mutable std::atomic<uint64_t> sessions_opened_{0}, sessions_closed_{0},
      sessions_rejected_{0}, writes_applied_{0}, write_calls_failed_{0},
      admission_rejections_{0}, admission_timeouts_{0}, reads_served_{0},
      snapshots_published_{0}, snapshots_reclaimed_{0};
  mutable std::atomic<uint64_t> reads_tier_[kNumReadTiers] = {};
};

/// A socket front end for an EngineService: accepts connections on a
/// unix:/tcp: address (wire.h), opens one session per connection, and runs
/// the script grammar over length-prefixed frames. One thread per
/// connection — the service underneath does the real concurrency control.
/// The accept loop joins the threads of connections that have finished, so
/// a long-running server holds threads only for live connections (plus
/// those that finished since the last accept).
class ServiceServer {
 public:
  ServiceServer(EngineService* service, wire::Address address);
  ~ServiceServer();

  /// Binds, listens, and starts the accept loop. For tcp:0 the bound port
  /// is in address().port afterwards.
  core::Status Start();
  /// Stops accepting, severs every live connection, joins all threads.
  void Stop();

  const wire::Address& address() const { return address_; }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connection threads not yet joined: live ones plus those that finished
  /// since the last accept.
  size_t connection_threads() const;

  /// One request line (or multi-line batch frame) through the grammar
  /// against `session`; returns the encoded "<code> <body>" response.
  /// Reads run under the session's deadline (code 4) but no budget, whose
  /// code 5 wire::Client would resubmit: a retried read is no cheaper.
  /// Every connection runs its frames through here, and so do the
  /// socketless callers: dynfo_cli, the tests and bench_e2e.
  std::string Dispatch(EngineService::SessionId session,
                       const std::string& request);

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// A connection thread's exit: drops `fd` from the live set, marks the
  /// thread finished for the accept loop to join, then closes `fd`.
  void FinishConnection(int fd);
  /// Joins the threads of connections that have finished.
  void ReapFinishedConnections();

  EngineService* service_;
  wire::Address address_;
  /// Atomic: Stop() shuts the listener down and writes -1 while AcceptLoop
  /// is still blocked in accept() on the old descriptor.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  mutable std::mutex connections_mutex_;
  std::vector<std::thread> connection_threads_;
  /// Descriptors of live connections only: a connection removes its fd here
  /// before closing it, so Stop() never shuts down a reused fd number.
  std::vector<int> connection_fds_;
  /// Threads whose connection has finished, awaiting a join.
  std::vector<std::thread::id> finished_connections_;
  std::atomic<uint64_t> connections_accepted_{0};
};

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_SERVICE_H_
