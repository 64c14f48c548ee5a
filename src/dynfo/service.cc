#include "dynfo/service.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <utility>

#include "core/check.h"
#include "core/text.h"
#include "fo/eval_naive.h"
#include "fo/parser.h"

namespace dynfo::dyn {

using relational::Element;
using relational::Request;

namespace {

/// Dispatch's answer to `quit` and `exit`.
constexpr char kQuitResponse[] = "0 bye";

}  // namespace

ExecTier ReadTierFor(const fo::Formula& formula) {
  return formula.QuantifierDepth() == 0 && formula.FreeVariables().empty()
             ? ExecTier::kNaive
             : ExecTier::kCompiledIndexed;
}

ServiceOptions ToolServiceOptions() {
  ServiceOptions options;
  options.engine.engine_options.use_dense_relations = true;
  options.engine.check_every = 0;
  return options;
}

bool ParseEngineFlag(const std::string& arg, ServiceOptions* options,
                     std::string* error) {
  EngineOptions& engine = options->engine.engine_options;
  ApplyGovernance& governance = options->engine.governance.governance;
  const size_t eq = arg.find('=');
  const std::string flag = arg.substr(0, eq);
  const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
  uint64_t parsed = 0;
  if (flag == "--backend") {
    if (value != "auto" && value != "hash" && value != "dense") {
      *error = "bad --backend value '" + value + "' (want auto|hash|dense)";
    }
    engine.use_dense_relations = value != "hash";
    engine.force_dense_backend = value == "dense";
  } else if (flag == "--deadline-ms") {
    // deadline_ms is signed: larger values would wrap to "already expired".
    if (!core::ParseU64(value, &parsed) || parsed == 0 || parsed > INT64_MAX) {
      *error = "bad --deadline-ms value '" + value + "'";
    }
    governance.deadline_ms = static_cast<int64_t>(parsed);
  } else if (flag == "--max-memory-mb") {
    if (!core::ParseU64(value, &parsed) || parsed == 0) {
      *error = "bad --max-memory-mb value '" + value + "'";
    }
    governance.limits.max_bytes = parsed * 1024 * 1024;
  } else {
    return false;
  }
  return true;
}

EngineService::EngineService(std::shared_ptr<const DynProgram> program,
                             size_t universe_size, ServiceOptions options,
                             Oracle oracle, InvariantCheck invariant)
    : options_(std::move(options)),
      guarded_(std::move(program), universe_size, std::move(oracle),
               std::move(invariant), options_.engine) {
  // Version 0: the post-init initial state, so readers that arrive before
  // the first write have something to pin.
  PublishLocked();
}

core::Result<EngineService::SessionId> EngineService::OpenSession(
    ApplyGovernance governance) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (options_.max_sessions != 0 && sessions_.size() >= options_.max_sessions) {
    sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
    return core::Status::ResourceExhausted(
        "session limit reached (" + std::to_string(sessions_.size()) + " of " +
        std::to_string(options_.max_sessions) + " open)");
  }
  const SessionId id = next_session_++;
  sessions_[id] = governance;
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void EngineService::CloseSession(SessionId session) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (sessions_.erase(session) > 0) {
    sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
}

core::Status EngineService::SetSessionGovernance(
    SessionId session, const ApplyGovernance& governance) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return core::Status::Error("unknown session " + std::to_string(session));
  }
  it->second = governance;
  return core::Status();
}

ApplyGovernance EngineService::SessionGovernance(SessionId session) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(session);
  if (it != sessions_.end() && it->second.active()) return it->second;
  return options_.engine.governance.governance;
}

core::Status EngineService::AdmitWriter(const ApplyGovernance& governance) {
  const size_t limit = options_.admission_queue_limit;
  const size_t waiting =
      waiting_writers_.fetch_add(1, std::memory_order_acq_rel);
  if (limit != 0 && waiting >= limit) {
    waiting_writers_.fetch_sub(1, std::memory_order_acq_rel);
    admission_rejections_.fetch_add(1, std::memory_order_relaxed);
    return core::Status::ResourceExhausted(
        "admission queue full: " + std::to_string(waiting) +
        " writer(s) already waiting (limit " + std::to_string(limit) + ")");
  }
  // The session's deadline bounds the WAIT too: a writer that cannot even
  // start before its budget expires reports the timeout instead of arriving
  // at the engine pre-expired (an already-expired one gets a free try).
  const bool locked = writer_mutex_.try_lock_until(governance.deadline());
  waiting_writers_.fetch_sub(1, std::memory_order_acq_rel);
  if (!locked) {
    admission_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return core::Status::DeadlineExceeded(
        "timed out waiting for the writer lock (deadline " +
        std::to_string(governance.deadline_ms) + " ms)");
  }
  return core::Status();
}

void EngineService::SetWriteGovernanceLocked(
    const ApplyGovernance& governance) {
  // The ladder/attempt policy is service-wide; only the per-session budget
  // swaps per write.
  guarded_.mutable_governance()->governance = governance;
}

void EngineService::PublishLocked() {
  Engine::StateView view = guarded_.engine().SnapshotView();
  auto version = std::make_shared<Version>(std::move(view.data), view.version,
                                           /*epoch=*/0,
                                           guarded_.engine().program_ptr());
  {
    std::lock_guard<std::mutex> lock(versions_mutex_);
    version->epoch = next_epoch_++;
    versions_.push_back(std::move(version));
  }
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
}

void EngineService::Reclaim() {
  // Destroy retired versions outside the lock: dropping a Structure frees
  // relation storage, which is not a constant-time critical section.
  std::vector<std::shared_ptr<Version>> retired;
  {
    std::lock_guard<std::mutex> lock(versions_mutex_);
    while (versions_.size() > 1 &&
           versions_.front()->pins.load(std::memory_order_acquire) == 0) {
      retired.push_back(std::move(versions_.front()));
      versions_.pop_front();
    }
  }
  if (!retired.empty()) {
    snapshots_reclaimed_.fetch_add(retired.size(), std::memory_order_relaxed);
  }
}

void EngineService::FinishWrite(bool publish) {
  if (publish) PublishLocked();
  writer_mutex_.unlock();
  Reclaim();
}

core::Status EngineService::Apply(SessionId session, const Request& request) {
  const ApplyGovernance governance = SessionGovernance(session);
  core::Status admitted = AdmitWriter(governance);
  if (!admitted.ok()) return admitted;
  SetWriteGovernanceLocked(governance);
  core::Status applied = guarded_.Apply(request);
  if (applied.ok()) {
    writes_applied_.fetch_add(1, std::memory_order_relaxed);
    if (options_.record_applied_history) applied_history_.push_back(request);
  } else {
    write_calls_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  FinishWrite(/*publish=*/applied.ok());
  return applied;
}

core::Status EngineService::ApplyBatch(SessionId session,
                                       std::span<const Request> requests,
                                       BatchReport* report) {
  BatchReport local;
  if (report == nullptr) report = &local;
  const ApplyGovernance governance = SessionGovernance(session);
  core::Status admitted = AdmitWriter(governance);
  if (!admitted.ok()) {
    *report = BatchReport{};
    report->code = admitted.code();
    return admitted;
  }
  SetWriteGovernanceLocked(governance);
  core::Status applied = guarded_.ApplyBatch(requests, report);
  // Prefix atomicity: whatever prefix committed is real history even when
  // the batch as a whole failed.
  if (report->applied > 0) {
    writes_applied_.fetch_add(report->applied, std::memory_order_relaxed);
    if (options_.record_applied_history) {
      applied_history_.insert(applied_history_.end(), requests.begin(),
                              requests.begin() + report->applied);
    }
  }
  if (!applied.ok()) {
    write_calls_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  FinishWrite(/*publish=*/report->applied > 0);
  return applied;
}

core::Status EngineService::Restore(const std::string& snapshot) {
  writer_mutex_.lock();
  core::Status restored = guarded_.Restore(snapshot);
  FinishWrite(/*publish=*/restored.ok());
  return restored;
}

core::Status EngineService::AttachDurability(const std::string& dir,
                                             DurableStoreOptions options) {
  writer_mutex_.lock();
  core::Status attached = guarded_.AttachDurability(dir, options);
  FinishWrite(/*publish=*/attached.ok());
  return attached;
}

core::Status EngineService::Compact() {
  std::lock_guard<WriterLock> lock(writer_mutex_);
  return guarded_.Compact();
}

core::Status EngineService::ReloadProgram(
    std::shared_ptr<const DynProgram> program) {
  writer_mutex_.lock();
  core::Status reloaded =
      guarded_.mutable_engine()->ReloadProgram(std::move(program));
  FinishWrite(/*publish=*/reloaded.ok());
  return reloaded;
}

std::string EngineService::Snapshot() {
  std::lock_guard<WriterLock> lock(writer_mutex_);
  return guarded_.engine().Snapshot();
}

EngineService::ReadPin EngineService::PinVersion() {
  std::shared_ptr<Version> version;
  {
    std::lock_guard<std::mutex> lock(versions_mutex_);
    version = versions_.back();
    version->pins.fetch_add(1, std::memory_order_acq_rel);
  }
  return ReadPin(this, std::move(version));
}

void EngineService::ReadPin::Release() {
  if (version_ == nullptr) return;
  version_->pins.fetch_sub(1, std::memory_order_acq_rel);
  version_ = nullptr;
  if (service_ != nullptr) {
    service_->Reclaim();
    service_ = nullptr;
  }
}

bool EngineService::QueryBool(const ReadPin& pin, std::vector<Element> params,
                              const core::ExecGovernor* governor) const {
  const fo::FormulaPtr& query = pin.program().bool_query();
  DYNFO_CHECK(query != nullptr)
      << pin.program().name() << " has no boolean query";
  return QuerySentence(pin, query, std::move(params), governor);
}

bool EngineService::QuerySentence(const ReadPin& pin,
                                  const fo::FormulaPtr& sentence,
                                  std::vector<Element> params,
                                  const core::ExecGovernor* governor) const {
  const ExecTier tier = ReadTierFor(*sentence);
  reads_served_.fetch_add(1, std::memory_order_relaxed);
  reads_tier_[static_cast<int>(tier)].fetch_add(1, std::memory_order_relaxed);
  fo::EvalContext ctx(pin.data(), std::move(params));
  ctx.governor = governor;
  if (tier == ExecTier::kNaive) {
    return fo::NaiveEvaluator::HoldsSentence(sentence, ctx);
  }
  return read_algebra_.HoldsSentence(sentence, ctx);
}

core::Result<relational::Relation> EngineService::QueryRelation(
    const ReadPin& pin, const std::string& name, std::vector<Element> params,
    const core::ExecGovernor* governor) const {
  const NamedQuery* query = pin.program().FindNamedQuery(name);
  if (query == nullptr) {
    return core::Status::Error(pin.program().name() + " has no query named " +
                               name);
  }
  const ExecTier tier = ReadTierFor(*query->formula);
  reads_served_.fetch_add(1, std::memory_order_relaxed);
  reads_tier_[static_cast<int>(tier)].fetch_add(1, std::memory_order_relaxed);
  fo::EvalContext ctx(pin.data(), std::move(params));
  ctx.governor = governor;
  const std::vector<std::string>& vars = query->tuple_variables;
  relational::Relation answer =
      tier == ExecTier::kNaive
          ? fo::NaiveEvaluator::EvaluateAsRelation(query->formula, vars, ctx)
          : read_algebra_.EvaluateAsRelation(query->formula, vars, ctx);
  if (governor != nullptr && governor->stopped()) return governor->status();
  return answer;
}

bool EngineService::ReadQueryBool(std::vector<Element> params) {
  ReadPin pin = PinVersion();
  return QueryBool(pin, std::move(params));
}

ServiceStats EngineService::stats() const {
  ServiceStats out;
  out.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  out.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  out.sessions_rejected = sessions_rejected_.load(std::memory_order_relaxed);
  out.writes_applied = writes_applied_.load(std::memory_order_relaxed);
  out.write_calls_failed =
      write_calls_failed_.load(std::memory_order_relaxed);
  out.admission_rejections =
      admission_rejections_.load(std::memory_order_relaxed);
  out.admission_timeouts =
      admission_timeouts_.load(std::memory_order_relaxed);
  out.reads_served = reads_served_.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumReadTiers; ++i) {
    out.reads_tier[i] = reads_tier_[i].load(std::memory_order_relaxed);
  }
  out.snapshots_published =
      snapshots_published_.load(std::memory_order_relaxed);
  out.snapshots_reclaimed =
      snapshots_reclaimed_.load(std::memory_order_relaxed);
  return out;
}

EngineService::WriterStats EngineService::writer_stats() {
  std::lock_guard<WriterLock> lock(writer_mutex_);
  const Engine& engine = guarded_.engine();
  WriterStats out;
  out.engine = engine.stats();
  out.eval = engine.eval_stats();
  const relational::Vocabulary& vocabulary = *engine.program().data_vocabulary();
  for (int i = 0; i < vocabulary.num_relations(); ++i) {
    out.dense.emplace_back(vocabulary.relation(i).name,
                           engine.data().relation(i).backend() ==
                               relational::RelationBackend::kDense);
  }
  if (const DurableStore* store = guarded_.durable_store()) {
    out.durable = store->counters();
  }
  return out;
}

size_t EngineService::retained_versions() const {
  std::lock_guard<std::mutex> lock(versions_mutex_);
  return versions_.size();
}

// -- ServiceServer ----------------------------------------------------------

ServiceServer::ServiceServer(EngineService* service, wire::Address address)
    : service_(service), address_(std::move(address)) {}

ServiceServer::~ServiceServer() { Stop(); }

core::Status ServiceServer::Start() {
  core::Result<int> listened = wire::Listen(address_);
  if (!listened.ok()) return listened.status();
  listen_fd_ = listened.value();
  if (address_.kind == wire::Address::Kind::kTcp && address_.port == 0) {
    core::Result<int> port = wire::BoundPort(listen_fd_);
    if (!port.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return port.status();
    }
    address_.port = port.value();
  }
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread(&ServiceServer::AcceptLoop, this);
  return core::Status();
}

void ServiceServer::Stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Joining drains the vector; ServeConnection closes its own fd.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    // Every connection has run its exit path: the ids it left are stale.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    finished_connections_.clear();
  }
  if (address_.kind == wire::Address::Kind::kUnix) {
    ::unlink(address_.path.c_str());
  }
}

size_t ServiceServer::connection_threads() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return connection_threads_.size();
}

void ServiceServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (Stop) or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    ReapFinishedConnections();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(&ServiceServer::ServeConnection, this, fd);
  }
}

void ServiceServer::ReapFinishedConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (std::thread::id id : finished_connections_) {
      auto it = std::find_if(
          connection_threads_.begin(), connection_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      finished.push_back(std::move(*it));
      connection_threads_.erase(it);
    }
    finished_connections_.clear();
  }
  // Each of these threads has at most its close and CloseSession left.
  for (std::thread& t : finished) t.join();
}

void ServiceServer::ServeConnection(int fd) {
  core::Result<EngineService::SessionId> opened = service_->OpenSession();
  if (!opened.ok()) {
    // Typed rejection at the door: the client's retry policy treats wire
    // code 5 as "back off and try again", which is exactly right for a
    // session-limit rejection.
    (void)wire::WriteFrame(
        fd, wire::EncodeResponse(wire::ExitCodeFor(opened.status().code()),
                                 opened.status().message()));
    FinishConnection(fd);
    return;
  }
  const EngineService::SessionId session = opened.value();
  std::string request;
  while (!stopping_.load(std::memory_order_acquire)) {
    core::Status got = wire::ReadFrame(fd, &request);
    if (!got.ok()) break;  // orderly close, churn kill, or transport error
    const std::string response = Dispatch(session, request);
    // `quit`'s answer is the one that also ends the connection.
    if (!wire::WriteFrame(fd, response).ok() || response == kQuitResponse) break;
  }
  FinishConnection(fd);
  service_->CloseSession(session);
}

void ServiceServer::FinishConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_fds_.erase(
        std::find(connection_fds_.begin(), connection_fds_.end(), fd));
    finished_connections_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

std::string ServiceServer::Dispatch(EngineService::SessionId session,
                                    const std::string& request) {
  using wire::EncodeResponse;
  using wire::ExitCodeFor;
  const size_t first_newline = request.find('\n');
  const std::string first_line = request.substr(0, first_newline);
  std::vector<std::string> words = wire::SplitWords(first_line);
  if (words.empty()) return EncodeResponse(2, "empty request");
  const std::string& command = words[0];

  if (wire::IsMutationCommand(command)) {
    Request parsed;
    std::string error;
    if (!wire::ParseMutation(words, &parsed, &error)) {
      return EncodeResponse(2, error);
    }
    core::Status applied = service_->Apply(session, parsed);
    if (!applied.ok()) {
      return EncodeResponse(ExitCodeFor(applied.code()), applied.ToString());
    }
    return EncodeResponse(0, "ok");
  }

  if (command == "batch") {
    if (words.size() != 1) {
      return EncodeResponse(2, "batch takes no arguments (batch ... end)");
    }
    if (first_newline == std::string::npos) {
      return EncodeResponse(2, "batch frame holds no block");
    }
    std::vector<Request> group;
    std::istringstream body(request.substr(first_newline + 1));
    std::string line;
    bool closed = false;
    while (std::getline(body, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::vector<std::string> inner = wire::SplitWords(line);
      if (inner.empty()) continue;
      if (inner[0] == "end") {
        closed = true;
        break;
      }
      if (!wire::IsMutationCommand(inner[0])) {
        return EncodeResponse(
            2, "'" + inner[0] + "' is not allowed inside a batch block");
      }
      Request parsed;
      std::string error;
      if (!wire::ParseMutation(inner, &parsed, &error)) {
        return EncodeResponse(2, error);
      }
      group.push_back(parsed);
    }
    if (!closed) return EncodeResponse(2, "batch block not closed with 'end'");
    BatchReport report;
    core::Status applied = service_->ApplyBatch(session, group, &report);
    if (!applied.ok()) {
      return EncodeResponse(ExitCodeFor(applied.code()),
                            applied.ToString() + " (batch applied " +
                                std::to_string(report.applied) + " of " +
                                std::to_string(group.size()) + ")");
    }
    return EncodeResponse(
        0, "ok applied=" + std::to_string(group.size()));
  }

  // Reads run under the session's deadline alone (see Dispatch's comment).
  const core::Deadline read_deadline =
      service_->SessionGovernance(session).deadline();
  const core::ExecGovernor read_governor(read_deadline, nullptr, nullptr);
  const core::ExecGovernor* governor =
      read_deadline.is_infinite() ? nullptr : &read_governor;

  // Boolean reads: the program's query (`query`) or a sentence (`eval`).
  if (command == "query" || command == "eval") {
    std::vector<Element> params;
    std::string error;
    if (command == "query" && !wire::ParseElements(words, 1, &params, &error)) {
      return EncodeResponse(2, error);
    }
    EngineService::ReadPin pin = service_->PinVersion();
    fo::FormulaPtr sentence = pin.program().bool_query();
    if (command == "eval") {
      const std::string text = first_line.substr(first_line.find("eval") + 4);
      fo::ParserEnvironment formulas(pin.program().data_vocabulary());
      auto parsed = formulas.Parse(text);
      if (!parsed.ok()) return EncodeResponse(2, parsed.status().message());
      sentence = parsed.value();
      if (!sentence->FreeVariables().empty()) {
        return EncodeResponse(2, "eval needs a sentence (no free variables)");
      }
    }
    if (!wire::CheckReadArguments(sentence, params, pin.data().universe_size(),
                                  &error)) {
      return EncodeResponse(2, error);
    }
    const bool answer =
        service_->QuerySentence(pin, sentence, std::move(params), governor);
    if (governor != nullptr && governor->stopped()) {
      return EncodeResponse(ExitCodeFor(governor->code()),
                            governor->status().message());
    }
    return EncodeResponse(0, std::string(answer ? "true" : "false") + " v=" +
                                 std::to_string(pin.version()) + " tier=" +
                                 ExecTierName(ReadTierFor(*sentence)));
  }

  if (command == "show") {
    if (words.size() < 2) return EncodeResponse(2, "show needs a name");
    std::vector<Element> params;
    std::string error;
    if (!wire::ParseElements(words, 2, &params, &error)) {
      return EncodeResponse(2, error);
    }
    EngineService::ReadPin pin = service_->PinVersion();
    std::string body = "v=" + std::to_string(pin.version()) + "\n";
    if (const NamedQuery* query = pin.program().FindNamedQuery(words[1])) {
      if (!wire::CheckReadArguments(query->formula, params,
                                    pin.data().universe_size(), &error)) {
        return EncodeResponse(2, error);
      }
      core::Result<relational::Relation> result =
          service_->QueryRelation(pin, words[1], std::move(params), governor);
      if (!result.ok()) {
        return EncodeResponse(ExitCodeFor(result.status().code()),
                              result.status().message());
      }
      return EncodeResponse(0, body + result.value().ToString());
    }
    if (pin.program().data_vocabulary()->RelationIndex(words[1]) >= 0) {
      return EncodeResponse(0,
                            body + pin.data().relation(words[1]).ToString());
    }
    return EncodeResponse(2, "no query or relation named " + words[1]);
  }

  if (command == "deadline") {
    uint64_t millis = 0;
    // deadline_ms is signed: larger values would wrap to "already expired".
    if (words.size() != 2 || !core::ParseU64(words[1], &millis) ||
        millis > INT64_MAX) {
      return EncodeResponse(2, "usage: deadline <ms> (0 clears, at most 2^63-1)");
    }
    ApplyGovernance governance =
        service_->options().engine.governance.governance;
    governance.deadline_ms = static_cast<int64_t>(millis);
    core::Status set = service_->SetSessionGovernance(session, governance);
    if (!set.ok()) return EncodeResponse(1, set.message());
    return EncodeResponse(0, "ok");
  }

  if (command == "stats") {
    const ServiceStats stats = service_->stats();
    const EngineService::WriterStats writer = service_->writer_stats();
    const Engine::Stats& engine = writer.engine;
    std::ostringstream out;
    out << "sessions=" << (stats.sessions_opened - stats.sessions_closed)
        << " writes_applied=" << stats.writes_applied
        << " write_calls_failed=" << stats.write_calls_failed
        << " admission_rejections=" << stats.admission_rejections
        << " admission_timeouts=" << stats.admission_timeouts
        << " reads_served=" << stats.reads_served
        << " reads_tier0=" << stats.reads_tier[0]
        << " reads_tier1=" << stats.reads_tier[1]
        << " reads_tier2=" << stats.reads_tier[2]
        << " snapshots_published=" << stats.snapshots_published
        << " snapshots_reclaimed=" << stats.snapshots_reclaimed
        << " retained_versions=" << service_->retained_versions()
        << "\nrequests=" << engine.requests
        << " recomputed=" << engine.relations_recomputed
        << " delta=" << engine.delta_applications << " +"
        << engine.tuples_inserted << "/-" << engine.tuples_erased
        << " tuples batches=" << engine.batches
        << " batch_requests=" << engine.batch_requests << "\nbackend:";
    for (const auto& [name, dense] : writer.dense) {
      out << ' ' << name << '=' << (dense ? "dense" : "hash");
    }
    out << " conversions=" << writer.eval.backend_conversions
        << " dense_applies=" << engine.dense_applies
        << " kernels=" << writer.eval.dense_kernel_launches
        << " words=" << writer.eval.words_scanned;
    if (writer.durable.has_value()) {
      const DurableStore::Counters& c = *writer.durable;
      out << "\ndurable: appends=" << c.appends
          << " batch_appends=" << c.batch_appends
          << " bytes=" << c.bytes_appended << " fsyncs=" << c.fsyncs
          << " full=" << c.full_snapshots << " rotated=" << c.segments_rotated
          << " collected=" << c.files_collected;
    }
    return EncodeResponse(0, out.str());
  }

  if (command == "dump") {
    EngineService::ReadPin pin = service_->PinVersion();
    std::string body = "v=" + std::to_string(pin.version()) + "\n" +
                       pin.data().ToString();
    body.pop_back();  // the structure's closing newline
    return EncodeResponse(0, body);
  }

  if (command == "compact") {
    core::Status compacted = service_->Compact();
    if (!compacted.ok()) {
      return EncodeResponse(ExitCodeFor(compacted.code()), compacted.ToString());
    }
    return EncodeResponse(0, "ok");
  }

  if (command == "ping") return EncodeResponse(0, "pong");
  if (command == "quit" || command == "exit") return kQuitResponse;

  return EncodeResponse(2, "unknown command '" + command + "'");
}

}  // namespace dynfo::dyn
