/// \file engine.h
/// Executes a DynProgram against a stream of requests.
///
/// The engine owns the data structure f_n(r-bar) and implements g_n: on each
/// request it evaluates the program's update formulas against the *old*
/// structure (synchronous semantics) and commits the results atomically.
///
/// Two orthogonal execution choices, both semantics-preserving (and verified
/// so by tests):
///   * eval_mode — which evaluator computes formula results (naive
///     substitute-and-test vs. the relational-algebra compiler);
///   * use_delta — when an update formula syntactically decomposes over a
///     base relation ("(B(x-bar) & keep) | delta", with B the target itself
///     or any other data relation), apply it as a diff instead of rebuilding
///     the relation. With compiled plans and indexes on, the removal side
///     runs a semi-naive program (fo/plan.h, DeltaProgram) that emits only
///     the changed tuples, deltas propagate between lets and update targets
///     across the rule DAG within one Apply (copy-on-write relation versions
///     plus op-chain provenance), and non-delta-safe rules fall back to the
///     full-materialization path. This is the sequential-implementation
///     analogue of the paper's parallel O(1)-time update: only the changed
///     tuples are touched. See DESIGN.md §11.
///
/// Each rule's path — full, a diff against its stored target, or
/// semi-naive — is decided once per program under these options (PlanFor);
/// load-time precompilation and every Apply read that one decision. The
/// only per-request override is the degradation ladder's naive pin, which
/// runs every rule in full through the reference evaluator.
///
/// One apply contract: a request is a batch of one. TryApply and
/// TryApplyBatch run the same governor setup, acceptance sweep
/// (DynProgram::ValidateRequest when governed), per-request core, and
/// BatchReport; TryApply only adds the ungoverned dense-kernel fast path
/// in front.
///
/// The per-request core (ApplyCore) is one Dyn-FO step in phases: the dense
/// kernel attempt; lets, each committed at once so later rules read it
/// (rolled back on a governed abort); staged updates, which read only the
/// old structure plus lets; the abort point; one counter fold; and the
/// commit. One evaluator (EvaluateRule) computes every let and update, and
/// the commit lands each value by one of two strategies: swap in a new
/// relation, or replay a delta in place. Where a request's raw change lands
/// (its input mirror) is decided once per request class (RequestPlan) and
/// shared with the dense path. See DESIGN.md §10–§11.
///
/// State leaves the engine in one serialized form: Snapshot() writes the
/// whole structure and the step counter, Restore() reads it back. Every
/// durable checkpoint embeds such a full snapshot (recovery.h, DESIGN.md
/// §12); there is no partial or diff form.

#ifndef DYNFO_DYNFO_ENGINE_H_
#define DYNFO_DYNFO_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "dynfo/program.h"
#include "fo/eval_algebra.h"
#include "fo/eval_context.h"
#include "fo/plan.h"
#include "relational/request.h"
#include "relational/structure.h"

namespace dynfo::dyn {

enum class EvalMode {
  kNaive,    ///< reference evaluator; O(n^arity) points per rule
  kAlgebra,  ///< relational-algebra compilation (default)
};

/// The degradation ladder's rungs, fastest first (dynfo/recovery.h,
/// DESIGN.md §10); the first two are also the service's read tiers
/// (dynfo/service.h). The values index RecoveryStats::tier_activations and
/// ServiceStats::reads_tier. Value 1 belonged to the retired index-off
/// "compiled" tier; it is kept unused so both arrays keep their layout, and
/// slot 1 always reads 0.
enum class ExecTier {
  kCompiledIndexed = 0,  ///< the engine as configured (reads: compiled+indexed)
  kNaive = 2,            ///< reference substitute-and-test evaluator
  kStartOver = 3,        ///< rebuild from the input structure, then retry
};

inline const char* ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kCompiledIndexed:
      return "compiled+indexed";
    case ExecTier::kNaive:
      return "naive";
    case ExecTier::kStartOver:
      return "start-over";
  }
  return "?";
}

/// Per-Apply resource governance. Default-constructed = inactive: TryApply
/// then runs the ungoverned trusted-caller path (no governor, no polls, no
/// validation sweep). Any non-default field activates governed execution.
struct ApplyGovernance {
  /// Wall-clock budget per Apply in milliseconds. 0 = no deadline;
  /// negative = already expired (pins the timeout path in tests).
  int64_t deadline_ms = 0;
  /// Caller-held cancellation flag, polled by operator loops.
  const core::CancelToken* cancel = nullptr;
  /// Memory/cardinality budget for materialized intermediates.
  core::ResourceLimits limits;

  // Chaos/test injectors (core/cancel.h, core/budget.h).
  uint64_t trip_after_checks = 0;        ///< cancel at the k-th governor poll
  uint64_t stall_at_check = 0;           ///< stall the k-th poll ...
  int stall_ms = 0;                      ///< ... for this many milliseconds
  uint64_t fail_alloc_after_charges = 0; ///< injected allocation failure

  /// `deadline_ms` as a Deadline (0 = infinite).
  core::Deadline deadline() const {
    return deadline_ms == 0 ? core::Deadline::Infinite()
                            : core::Deadline::AfterMillis(deadline_ms);
  }

  bool active() const {
    return deadline_ms != 0 || cancel != nullptr || limits.active() ||
           trip_after_checks != 0 || stall_at_check != 0 ||
           fail_alloc_after_charges != 0;
  }
};

/// What a TryApply or TryApplyBatch observed: the governor's verdict and
/// poll/charge accounting, for callers tracking governance cost. On a
/// non-OK return the engine holds exactly the first `applied` requests (the
/// fully-applied prefix; 0 or 1 for TryApply); the failing request and
/// everything after it are untouched.
struct BatchReport {
  core::StatusCode code = core::StatusCode::kOk;
  size_t applied = 0;  ///< length of the fully-applied prefix
  uint64_t governor_checks = 0;
  uint64_t tuples_charged = 0;
  uint64_t bytes_charged = 0;
};

/// An FO-definable bulk change (Schwentick, Vortmeier & Zeume, "Dynamic
/// Complexity under Definable Changes"): one synchronous step inserting or
/// deleting the WHOLE definable tuple set { tuple_variables : formula }
/// into/from an input relation, instead of a single tuple. The formula is
/// evaluated against the engine's current data structure (auxiliary
/// relations included), then the change set is expanded into a
/// canonically-ordered sequence of single-tuple requests and fed through
/// the batched Apply pipeline — the faithful simulation of a definable
/// change by the paper's single-tuple model.
struct DefinableChange {
  /// kInsert or kDelete (kSetConstant has no definable form).
  relational::RequestKind mode = relational::RequestKind::kInsert;
  std::string target;  ///< input relation receiving the change set
  /// Columns of the change set; the formula's free variables must be among
  /// these, like an UpdateRule's.
  std::vector<std::string> tuple_variables;
  fo::FormulaPtr formula;  ///< selects the change set over the data structure
};

struct EngineOptions {
  EvalMode eval_mode = EvalMode::kAlgebra;
  /// Apply target-preserving rules as in-place diffs. Only honored in
  /// kAlgebra mode; kNaive always recomputes (it is the reference).
  bool use_delta = true;
  /// Threads per request: fixed at 1. Every request runs on the calling
  /// thread; the constructor rejects any other value. Concurrency lives
  /// across EngineService sessions (DESIGN.md §7).
  int num_threads = 1;
  /// Compile each formula to a reusable plan once at load time instead of
  /// re-planning on every evaluation (fo/plan.h). Only meaningful in kAlgebra
  /// mode; off = compile a fresh plan on every evaluation, the "replan"
  /// bench ablation.
  bool use_compiled_plans = true;
  /// Maintain persistent per-column-subset indexes on the stored relations
  /// and let compiled atom joins probe them (relational/index.h). Only
  /// effective with use_compiled_plans.
  bool use_indexes = true;
  /// Let eligible stored relations (arity <= 2) use the packed-bitmap
  /// backend, chosen per relation by a density cost model at commit
  /// boundaries, and answer whole requests through lowered word-parallel
  /// kernels when every update rule of the request class lowers
  /// (DESIGN.md §13). Off by default: the hash backend stays the reference;
  /// the CLI and benchmarks opt in. Only meaningful in kAlgebra mode with
  /// compiled plans.
  bool use_dense_relations = false;
  /// With use_dense_relations, pin every representable relation to the
  /// dense backend instead of consulting the cost model (CLI
  /// --backend=dense; conversion-churn tests).
  bool force_dense_backend = false;
};

/// Runs one DynProgram at one universe size. Apply/Query must be called from
/// one thread at a time, and each call runs on the calling thread.
class Engine {
 public:
  struct Stats {
    uint64_t requests = 0;
    uint64_t relations_recomputed = 0;
    uint64_t delta_applications = 0;
    uint64_t tuples_inserted = 0;
    uint64_t tuples_erased = 0;
    /// Total tuples materialized across ALL paths: full-recompute result
    /// sizes plus every tuple applied through a delta path. The O(delta)
    /// claim is tuples_delta_written / tuples_written approaching 1 on
    /// delta-friendly workloads.
    uint64_t tuples_written = 0;
    /// Tuples applied (successful erases + inserts) through delta paths —
    /// in-place diffs, copy-on-write versions, and op-chain replays — rather
    /// than full rematerialization.
    uint64_t tuples_delta_written = 0;
    /// Rule applications (lets and updates) whose removal side ran a bounded
    /// semi-naive program (or had keep ≡ true) — the O(delta) path.
    uint64_t delta_rules = 0;
    /// Rule applications that had delta configured (use_delta, algebra mode)
    /// but fell back to full rematerialization — not decomposable, removal
    /// side not delta-safe, or the semi-naive gates (compiled plans +
    /// indexes) off for the request.
    uint64_t fallback_recomputes = 0;
    /// ApplyBatch/TryApplyBatch calls that applied at least one request,
    /// and the requests they applied (each also counted in `requests`).
    uint64_t batches = 0;
    uint64_t batch_requests = 0;
    /// Requests answered entirely by the dense kernel fast path: every
    /// update rule executed as word-parallel bitmap kernels and committed
    /// as a whole-plane rewrite. The path skips the wall-clock timers
    /// (chrono reads would dominate its sub-microsecond budget), so these
    /// requests contribute nothing to *_seconds.
    uint64_t dense_applies = 0;
    /// Elapsed wall time of the update-evaluation phases across requests.
    double update_wall_seconds = 0;
    /// Elapsed wall time of the post-evaluation commit phases (delta
    /// replays, relation swaps, index maintenance) across requests.
    double commit_seconds = 0;
  };

  Engine(std::shared_ptr<const DynProgram> program, size_t universe_size,
         EngineOptions options = {});

  const DynProgram& program() const { return *program_; }
  std::shared_ptr<const DynProgram> program_ptr() const { return program_; }
  const EngineOptions& options() const { return options_; }
  size_t universe_size() const { return data_.universe_size(); }

  /// Responds to one request against the input vocabulary. CHECK-fails on
  /// malformed requests; trusted-caller form of TryApply with no governance.
  void Apply(const relational::Request& request);

  /// Governed Apply: a batch of one (see TryApplyBatch). `naive` pins this
  /// one request to the naive reference evaluator, every rule rematerialized
  /// in full, whatever the engine's configured options (the degradation
  /// ladder's lower rungs). On any non-OK
  /// return — kCancelled, kDeadlineExceeded, kResourceExhausted, or kError
  /// for a request the program does not accept (DynProgram::ValidateRequest)
  /// — the engine state is bit-identical to the pre-call state
  /// (evaluate-then-commit; mid-request temporaries are rolled back) and
  /// the stats counters are untouched. An ungoverned, unpinned call without
  /// a report first tries the dense kernel fast path.
  core::Status TryApply(const relational::Request& request,
                        const ApplyGovernance& governance = {}, bool naive = false,
                        BatchReport* report = nullptr);

  /// Applies a whole batch of requests as consecutive synchronous Dyn-FO
  /// steps — bit-identical to calling Apply on each request in order (each
  /// request sees its predecessors' effects) — while paying the batch-level
  /// constants once: one governance/governor setup and (through the
  /// recovery layer) one group-commit journal record and one fsync.
  /// CHECK-fails on malformed requests; trusted-caller form of
  /// TryApplyBatch with no governance.
  void ApplyBatch(std::span<const relational::Request> requests);

  /// Governed batched Apply. The governance budget (deadline, cancellation,
  /// resource limits) covers the WHOLE batch under a single governor.
  /// Abort contract (prefix atomicity): each request remains individually
  /// atomic, so a mid-batch stop returns non-OK with the engine at the last
  /// fully-applied prefix — `report->applied` says how long it is — and no
  /// effect of the failing request. Governed, one validation sweep runs
  /// first: a request the program does not accept rejects the whole batch
  /// before anything applies. An empty batch is an OK no-op.
  core::Status TryApplyBatch(std::span<const relational::Request> requests,
                             const ApplyGovernance& governance = {},
                             BatchReport* report = nullptr);

  /// Materializes a definable change against the CURRENT data structure:
  /// evaluates the formula through the configured evaluator (compiled plans
  /// and indexes included) and expands the result into single-tuple
  /// requests in canonical (sorted-tuple) order — deterministic across
  /// every engine configuration. The result feeds TryApplyBatch (or the
  /// recovery layer's batched pipeline). CHECK-fails if the target is not
  /// an input relation of matching arity or the mode is kSetConstant.
  relational::RequestSequence MaterializeDefinableChange(
      const DefinableChange& change) const;

  /// Materialize + TryApplyBatch in one synchronous step.
  core::Status TryApplyDefinable(const DefinableChange& change,
                                 const ApplyGovernance& governance = {},
                                 BatchReport* report = nullptr);

  /// Cross-checks every relation's persistent indexes against its tuples;
  /// kCorruption with the first inconsistency found. O(total tuples).
  core::Status ValidateIndexes() const;

  /// Drops every derived artifact — persistent indexes, delta plans, the
  /// compiled-plan cache — and recompiles from the program. The repair move
  /// for index/plan corruption: tuple data is untouched.
  void RebuildCompiledState();

  /// Evaluates the program's boolean query (optionally parameterized).
  bool QueryBool(std::vector<relational::Element> params = {}) const;

  /// Evaluates a named query as a relation.
  relational::Relation QueryRelation(const std::string& name,
                                     std::vector<relational::Element> params = {}) const;

  /// Evaluates an ad-hoc FO sentence against the data structure — any
  /// first-order question is "free" in the Dyn-FO model.
  bool QuerySentence(const fo::FormulaPtr& sentence,
                     std::vector<relational::Element> params = {}) const;

  const relational::Structure& data() const { return data_; }

  /// Mutable access for Dyn-FO+ programs: polynomial precomputation installs
  /// the initial structure directly (paper §3.1's relaxation of condition 4).
  relational::Structure* mutable_data() { return &data_; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  /// Counters from the shared formula evaluator: operator counts, plan-cache
  /// hit rate, index probes/builds, dense kernel work. See fo/eval_stats.h.
  /// backend_conversions is engine-owned (conversions happen at commit
  /// boundaries, outside any evaluator call) and folded in here.
  fo::EvalStats eval_stats() const {
    fo::EvalStats stats = algebra_.stats();
    stats.backend_conversions += backend_conversions_;
    return stats;
  }
  void ResetEvalStats() {
    algebra_.ResetStats();
    backend_conversions_ = 0;
  }

  /// The per-relation backend policy this engine's options induce.
  relational::BackendPolicy backend_policy() const;
  size_t plan_cache_size() const { return algebra_.plan_cache_size(); }

  /// A point-in-time view of the engine state: a copy-on-write copy of the
  /// data structure plus the request counter it was taken at. The copy is
  /// O(#relations + overlay), never O(stored tuples) — relation copies
  /// share their base storage (relational/relation.h) and only private
  /// overlays are duplicated — so taking a view on every committed write is
  /// cheap. Queries against the view are read-only and never mutate the
  /// shared base, so any number of views coexist with the live engine.
  struct StateView {
    relational::Structure data;
    uint64_t version = 0;  ///< stats().requests at capture time
  };

  /// O(1) structural snapshot for concurrent readers (DESIGN.md §15). The
  /// serializing Snapshot() below walks every tuple; this only copies
  /// relation handles.
  StateView SnapshotView() const { return {data_, stats_.requests}; }

  /// Serializes the full engine state — the data structure (auxiliary
  /// relations plus mirrored input) and the request/step counter — as a
  /// versioned, checksummed text blob. Execution options are NOT state and
  /// are not serialized; a snapshot restores into an engine built with any
  /// options (all modes are bit-identical, see program_equivalence_test).
  std::string Snapshot() const;

  /// Restores a snapshot produced by Snapshot() on an engine built from
  /// the same program at the same universe size. Corrupt, truncated, or
  /// mismatched snapshots yield an error Status and leave the engine
  /// untouched — never a crash, and never an allocation beyond what the
  /// backend cost model allows (relational/serialize.h).
  core::Status Restore(const std::string& snapshot);

  /// Overrides the request/step counter; recovery paths use this to keep
  /// the counter monotone across a start-over rebuild.
  void set_request_counter(uint64_t requests) { stats_.requests = requests; }

  /// Swaps in a new program mid-run, keeping the data structure and request
  /// counter. The programs must share vocabulary objects (same tau/sigma).
  /// Every compiled artifact keyed to the old program — the delta-plan map
  /// and the evaluator's plan cache — is invalidated, and the new program's
  /// plans are compiled (and their indexes registered) before returning.
  core::Status ReloadProgram(std::shared_ptr<const DynProgram> program);

 private:
  /// How Apply runs a rule under this engine's options, decided once by
  /// PlanFor. A naive-pinned request runs every rule kFull instead.
  enum class RulePath {
    kFull,       ///< rematerialize the whole formula
    kDiff,       ///< update rules only: removals scan the stored target
                 ///< against the keep-filter, plus the additions
    kSemiNaive,  ///< removals from the bounded compiled delta program, plus
                 ///< the additions; the base may be another relation
  };

  /// How the kDiff path tests stored target tuples against the keep-filter,
  /// decided with the path by PlanFor.
  enum class KeepTest {
    kNone,      ///< keep ≡ true: nothing is removed
    kPerTuple,  ///< quantifier-free: the naive evaluator checks each tuple
    kSetWise,   ///< the algebra evaluator materializes the keep set once
  };

  /// How a rule decomposes as `(base(x-bar) ∧ keep) ∨ additions`; see file
  /// comment. `base` is the rule's own target when the formula is
  /// target-preserving (the classic shape), otherwise any data relation
  /// whose atom carries exactly the tuple variables — which is how deltas
  /// propagate through lets across the rule DAG.
  struct DeltaPlan {
    bool applicable = false;
    std::string base;          ///< relation the decomposition reads
    fo::FormulaPtr keep;       ///< old base tuple survives iff this holds (may be True)
    fo::FormulaPtr additions;  ///< tuples to add (may be False)
    /// Compiled semi-naive removal program for the keep-filter (fo/plan.h);
    /// null unless delta is configured with compiled plans, bounded only
    /// when delta-safe.
    std::shared_ptr<const fo::DeltaProgram> removals;
    RulePath path = RulePath::kFull;
    KeepTest keep_test = KeepTest::kNone;
  };

  /// One update rule lowered to a dense kernel program; part of a bundle.
  struct DenseRuleEntry {
    int target_index = -1;  ///< data-vocabulary index of the rule's target
    int arity = 0;
    fo::DenseProgramPtr program;
  };
  /// A request class's update rules lowered as a unit. Eligible only when
  /// the dense gates are on, the class has no lets, every update rule
  /// lowers, and every target is dense-representable — the remaining
  /// per-request conditions (targets currently dense-backed, no live
  /// indexes) are checked at Apply time.
  struct DenseRuleBundle {
    bool eligible = false;
    std::vector<DenseRuleEntry> entries;
    std::vector<int> view_inputs;  ///< relations probed with slot arguments
  };

  /// How one request class — a request kind on one input symbol — runs,
  /// decided once per program by PlanForRequest and shared by the dense and
  /// the rule paths. It points only into the program, which engine copies
  /// share, so a copied plan stays valid.
  struct RequestPlan {
    relational::RequestKind kind = relational::RequestKind::kInsert;
    std::string target;                   ///< the input symbol's name
    const RequestRules* rules = nullptr;  ///< null: the class has no rules
    /// The input mirror: the data relation (insert/delete) or constant
    /// (set) that receives the raw change; -1 when the data vocabulary has
    /// no such symbol or an update rule of this class targets it.
    int mirror = -1;
    DenseRuleBundle dense;
  };

  /// Per-request evaluation state and one rule's evaluated value, defined
  /// in engine.cc.
  struct RequestState;
  struct RuleValue;

  /// Evaluates `formula` as a relation over `variables` through the naive
  /// reference when `naive` is set or the engine is configured naive, and
  /// through the algebra evaluator otherwise.
  relational::Relation Evaluate(const fo::FormulaPtr& formula,
                                const std::vector<std::string>& variables,
                                const fo::EvalContext& ctx, bool naive = false) const;

  /// The memoized decomposition and path of `rule`, a let when `is_let`
  /// (lets have no kDiff path): the one place a rule's path is decided.
  const DeltaPlan& PlanFor(const UpdateRule& rule, bool is_let);

  /// The memoized plan of the request class (`kind`, `target`); classes
  /// without rules are planned on first use.
  const RequestPlan& PlanForRequest(relational::RequestKind kind,
                                    const std::string& target);

  /// use_delta in kAlgebra mode: rules that run kFull count as fallbacks.
  bool delta_configured() const {
    return options_.eval_mode == EvalMode::kAlgebra && options_.use_delta;
  }

  /// The dense gates: a non-hash backend policy with compiled plans.
  bool dense_configured() const {
    return backend_policy() != relational::BackendPolicy::kHashOnly &&
           options_.use_compiled_plans;
  }

  /// The apply contract shared by TryApply and TryApplyBatch: one governor
  /// setup for the whole sequence, the acceptance sweep (typed errors when
  /// governed, the trusted-caller CHECK otherwise), then ApplyCore per
  /// request until the first failure, and the report.
  core::Status ApplyRequests(std::span<const relational::Request> requests,
                             const ApplyGovernance& governance, bool naive,
                             BatchReport* report);

  /// The ungoverned trusted-caller contract: no validation sweep, but a
  /// delete on a semi-dynamic program would leave its auxiliary state
  /// silently stale, so it CHECK-fails instead.
  void CheckTrustedRequest(const relational::Request& request) const;

  /// The per-request core of ApplyRequests, one Dyn-FO step in phases:
  /// the dense attempt, RunLets, StageUpdates, the abort point, the counter
  /// fold, and Commit. `governor` null = ungoverned; non-null = governed
  /// under the CALLER's governor, which a batch shares across all of its
  /// requests (one deadline/budget for the whole batch). `naive` as in
  /// TryApply.
  core::Status ApplyCore(const relational::Request& request,
                         const core::ExecGovernor* governor, bool naive);

  /// One rule's value on the path PlanFor chose (every rule kFull when
  /// `state` is naive-pinned): the whole new value, or a delta with its
  /// commit strategy.
  RuleValue EvaluateRule(const UpdateRule& rule, bool is_let,
                         const fo::EvalContext& ctx, const RequestState& state);

  /// Temporaries: evaluates each let and commits it at once so later rules
  /// read it, recording the governed rollback. False = the governor stopped.
  bool RunLets(const RequestPlan& plan, const fo::EvalContext& ctx,
               RequestState* state);

  /// Evaluates every update rule against the pre-request state (plus lets)
  /// into `state` without touching data_.
  void StageUpdates(const RequestPlan& plan, const fo::EvalContext& ctx,
                    RequestState* state);

  /// Past the abort point: lands the staged values and the input mirror,
  /// then re-runs the backend cost model on every rule target.
  void Commit(const RequestPlan& plan, const relational::Request& request,
              RequestState* state);

  /// Writes the raw input change into the plan's mirror symbol (shared by
  /// the dense and the rule paths).
  void CommitMirror(const RequestPlan& plan, const relational::Request& request);

  /// Plans every request class that has rules (lowering dense bundles under
  /// the dense gates) and the boolean query's dense form.
  void BuildRequestPlans();

  enum class DenseApplyOutcome {
    kIneligible,  ///< conditions not met; caller runs the rule path
    kApplied,     ///< committed (stats updated); caller returns OK
    kAborted,     ///< governor stopped mid-kernel; nothing was mutated
  };
  /// The whole-request dense kernel path: executes every lowered update rule
  /// of `plan`'s bundle into exec-local planes, then commits them as
  /// whole-plane rewrites.
  DenseApplyOutcome TryDenseApply(const relational::Request& request,
                                  const RequestPlan& plan,
                                  const core::ExecGovernor* governor);

  /// Re-runs the backend cost model on one relation after a commit-point
  /// mutation, accumulating conversions into the engine's counter.
  void ReapplyBackend(int relation_index);

  /// Compiles every formula the program can execute on each rule's
  /// PlanFor path (delta keeps/additions, full rules, lets, queries) and
  /// registers the plans' indexes on `data_`, so the hot Apply path never
  /// plans and its first probe never builds. No-op outside kAlgebra mode or
  /// with use_compiled_plans off.
  void PrecompileProgram();

  /// Evaluation options derived from EngineOptions (the compiled-plan and
  /// index gates; indexes only with compiled plans).
  fo::EvalOptions eval_options() const {
    return {options_.use_compiled_plans,
            options_.use_compiled_plans && options_.use_indexes};
  }

  std::shared_ptr<const DynProgram> program_;
  EngineOptions options_;
  relational::Structure data_;
  fo::AlgebraEvaluator algebra_;
  std::map<const UpdateRule*, DeltaPlan> plans_;
  /// Request-class plans, rebuilt with the compiled state. A program has a
  /// handful of classes, so PlanForRequest scans them: cheaper than a tree
  /// walk on the dense path's sub-microsecond budget. A deque keeps
  /// references valid while classes without rules are added on first use.
  std::deque<RequestPlan> request_plans_;
  fo::DenseProgramPtr dense_query_;  ///< bool_query lowered to rank 0
  /// When the lowered bool query is a single slot-free nullary atom (PARITY's
  /// `b`), the relation index whose stored bit IS the answer; -1 otherwise.
  /// QueryBool then reads the bit plane directly instead of launching a
  /// kernel for one bit.
  int dense_query_bit_ = -1;
  /// Backend conversions decided by this engine at commit boundaries.
  /// Engine-owned rather than summed from relations: relation copies (CoW
  /// staging, rollback) would double- or under-count per-value counters.
  uint64_t backend_conversions_ = 0;
  Stats stats_;
};

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_ENGINE_H_
