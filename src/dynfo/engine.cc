#include "dynfo/engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/text.h"
#include "fo/eval_naive.h"
#include "fo/normalize.h"
#include "relational/serialize.h"

namespace dynfo::dyn {

namespace {

/// Stack-array bound on a dense bundle's rules; no real program comes close.
constexpr size_t kMaxDenseRules = 16;

/// True iff `f` is Atom(R, x1, ..., xk) with args exactly the rule's tuple
/// variables, in order — the anchor shape a delta decomposition reads.
bool IsBaseAtom(const fo::Formula& f, const UpdateRule& rule) {
  if (f.kind() != fo::FormulaKind::kAtom) return false;
  if (f.args().size() != rule.tuple_variables.size()) return false;
  for (size_t i = 0; i < f.args().size(); ++i) {
    const fo::Term& t = f.args()[i];
    if (!t.is_variable() || t.name() != rule.tuple_variables[i]) return false;
  }
  return true;
}

}  // namespace

Engine::Engine(std::shared_ptr<const DynProgram> program, size_t universe_size,
               EngineOptions options)
    : program_(std::move(program)),
      options_(options),
      data_(program_->data_vocabulary(), universe_size) {
  DYNFO_CHECK(options_.num_threads == 1)
      << "EngineOptions::num_threads is fixed at 1 (got " << options_.num_threads
      << "): every request runs on the calling thread";
  core::Status status = program_->Validate();
  DYNFO_CHECK(status.ok()) << status.message();
  // First-order initialization (f_n(empty), paper condition 4): rules run in
  // order, each seeing the results of the previous ones.
  for (const UpdateRule& rule : program_->init_rules()) {
    fo::EvalContext ctx(data_, {}, eval_options());
    data_.relation(rule.target) = Evaluate(rule.formula, rule.tuple_variables, ctx);
  }
  backend_conversions_ += data_.ConfigureBackends(backend_policy());
  PrecompileProgram();
}

relational::BackendPolicy Engine::backend_policy() const {
  if (options_.eval_mode != EvalMode::kAlgebra || !options_.use_dense_relations) {
    return relational::BackendPolicy::kHashOnly;
  }
  return options_.force_dense_backend ? relational::BackendPolicy::kForceDense
                                      : relational::BackendPolicy::kAuto;
}

void Engine::ReapplyBackend(int relation_index) {
  if (data_.relation(relation_index).ConfigureBackend(backend_policy(),
                                                      data_.universe_size())) {
    ++backend_conversions_;
  }
}

void Engine::BuildRequestPlans() {
  request_plans_.clear();
  dense_query_ = nullptr;
  dense_query_bit_ = -1;
  for (const auto& [key, rules] : program_->rules()) {
    PlanForRequest(key.first, key.second);
  }
  if (!dense_configured() || program_->bool_query() == nullptr) return;
  dense_query_ = fo::LowerToDense(program_->bool_query(), {}, data_.vocabulary());
  if (dense_query_ != nullptr && dense_query_->root->kind == fo::DenseOpKind::kAtom &&
      dense_query_->root->relation_arity == 0 && dense_query_->root->args.empty()) {
    dense_query_bit_ = dense_query_->root->relation_index;
  }
}

const Engine::RequestPlan& Engine::PlanForRequest(relational::RequestKind kind,
                                                  const std::string& target) {
  for (const RequestPlan& plan : request_plans_) {
    if (plan.kind == kind && plan.target == target) return plan;
  }
  RequestPlan plan;
  plan.kind = kind;
  plan.target = target;
  plan.rules = program_->RulesFor(kind, target);
  const relational::Vocabulary& vocab = data_.vocabulary();
  // The raw change lands in the same-named data symbol unless an update
  // rule of this class redefines it.
  if (kind == relational::RequestKind::kSetConstant) {
    plan.mirror = vocab.ConstantIndex(target);
  } else {
    plan.mirror = vocab.RelationIndex(target);
    if (plan.rules != nullptr) {
      for (const UpdateRule& rule : plan.rules->updates) {
        if (rule.target == target) plan.mirror = -1;
      }
    }
  }
  DenseRuleBundle& bundle = plan.dense;
  bundle.eligible = dense_configured() && plan.rules != nullptr &&
                    plan.rules->lets.empty() && !plan.rules->updates.empty() &&
                    plan.rules->updates.size() <= kMaxDenseRules;
  std::set<int> views;
  for (size_t i = 0; bundle.eligible && i < plan.rules->updates.size(); ++i) {
    const UpdateRule& rule = plan.rules->updates[i];
    DenseRuleEntry entry;
    entry.target_index = vocab.RelationIndex(rule.target);
    entry.arity = static_cast<int>(rule.tuple_variables.size());
    if (entry.arity <= relational::DenseSet::kMaxDenseArity) {
      entry.program = fo::LowerToDense(rule.formula, rule.tuple_variables, vocab);
    }
    bundle.eligible = entry.program != nullptr;
    if (!bundle.eligible) break;
    views.insert(entry.program->view_relations.begin(),
                 entry.program->view_relations.end());
    bundle.entries.push_back(std::move(entry));
  }
  if (!bundle.eligible) bundle.entries.clear();
  bundle.view_inputs.assign(views.begin(), views.end());
  request_plans_.push_back(std::move(plan));
  return request_plans_.back();
}

void Engine::PrecompileProgram() {
  BuildRequestPlans();
  if (options_.eval_mode != EvalMode::kAlgebra || !options_.use_compiled_plans) return;
  fo::EvalContext ctx(data_, {}, eval_options());
  auto precompile = [&](const fo::FormulaPtr& formula) {
    if (formula == nullptr) return;
    fo::PlanPtr plan = algebra_.Precompile(formula, ctx);
    if (options_.use_indexes) fo::RegisterPlanIndexes(*plan, data_);
  };
  // Compile exactly what each rule's path evaluates, so the hot path runs
  // zero planner invocations in every gate configuration. A semi-naive rule
  // never evaluates its full formula (which stays lazily compilable for
  // naive-pinned fallbacks).
  auto precompile_rule = [&](const UpdateRule& rule, bool is_let) {
    const DeltaPlan& plan = PlanFor(rule, is_let);
    if (plan.path == RulePath::kFull) {
      precompile(rule.formula);
      return;
    }
    if (plan.path == RulePath::kDiff && plan.keep_test == KeepTest::kSetWise) {
      precompile(plan.keep);
    }
    if (plan.additions->kind() != fo::FormulaKind::kFalse) precompile(plan.additions);
    if (plan.path == RulePath::kSemiNaive) {
      fo::RegisterDeltaProgramIndexes(*plan.removals, data_);
    }
  };
  for (const auto& [key, rules] : program_->rules()) {
    for (const UpdateRule& rule : rules.lets) precompile_rule(rule, /*is_let=*/true);
    for (const UpdateRule& rule : rules.updates) precompile_rule(rule, /*is_let=*/false);
  }
  if (program_->bool_query() != nullptr) precompile(program_->bool_query());
}

core::Status Engine::ReloadProgram(std::shared_ptr<const DynProgram> program) {
  DYNFO_CHECK(program != nullptr);
  core::Status status = program->Validate();
  if (!status.ok()) return status;
  if (program->data_vocabulary() != program_->data_vocabulary() ||
      program->input_vocabulary() != program_->input_vocabulary()) {
    return core::Status::Error(
        "ReloadProgram requires the new program to share the old program's "
        "vocabulary objects");
  }
  program_ = std::move(program);
  // Both caches key on the old program's objects (rule addresses, formula
  // identities) and would dangle or silently serve stale plans.
  plans_.clear();
  algebra_.ClearPlanCache();
  PrecompileProgram();
  return core::Status();
}

relational::Relation Engine::Evaluate(const fo::FormulaPtr& formula,
                                      const std::vector<std::string>& variables,
                                      const fo::EvalContext& ctx, bool naive) const {
  if (naive || options_.eval_mode == EvalMode::kNaive) {
    return fo::NaiveEvaluator::EvaluateAsRelation(formula, variables, ctx);
  }
  return algebra_.EvaluateAsRelation(formula, variables, ctx);
}

const Engine::DeltaPlan& Engine::PlanFor(const UpdateRule& rule, bool is_let) {
  auto it = plans_.find(&rule);
  if (it != plans_.end()) return it->second;

  DeltaPlan plan;
  std::vector<fo::FormulaPtr> disjuncts;
  if (rule.formula->kind() == fo::FormulaKind::kOr) {
    disjuncts = rule.formula->children();
  } else {
    disjuncts = {rule.formula};
  }
  // Pass 1 anchors on the rule's own target atom (the classic in-place
  // shape); pass 2 accepts any other data relation's atom, which lets
  // deltas chain through lets (e.g. reach_u's PV' = T | additions reads the
  // T let, itself a delta over PV).
  auto decompose = [&](bool target_only) {
    for (size_t i = 0; i < disjuncts.size() && !plan.applicable; ++i) {
      std::vector<fo::FormulaPtr> conjuncts;
      if (disjuncts[i]->kind() == fo::FormulaKind::kAnd) {
        conjuncts = disjuncts[i]->children();
      } else {
        conjuncts = {disjuncts[i]};
      }
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (!IsBaseAtom(*conjuncts[j], rule)) continue;
        if (target_only != (conjuncts[j]->relation() == rule.target)) continue;
        std::vector<fo::FormulaPtr> keep(conjuncts);
        keep.erase(keep.begin() + static_cast<ptrdiff_t>(j));
        std::vector<fo::FormulaPtr> additions(disjuncts);
        additions.erase(additions.begin() + static_cast<ptrdiff_t>(i));
        plan.applicable = true;
        plan.base = conjuncts[j]->relation();
        plan.keep = fo::Formula::And(std::move(keep));
        plan.additions = fo::Formula::Or(std::move(additions));
        break;
      }
    }
  };
  decompose(/*target_only=*/true);
  if (!plan.applicable) decompose(/*target_only=*/false);

  // Compile the semi-naive removal program while we are here, so Apply
  // never plans.
  const bool trivial_keep =
      plan.applicable && plan.keep->kind() == fo::FormulaKind::kTrue;
  if (plan.applicable && delta_configured() && options_.use_compiled_plans) {
    const fo::FormulaPtr not_keep =
        trivial_keep ? nullptr : fo::ToNnf(fo::Formula::Not(plan.keep));
    const int base_index = data_.vocabulary().RelationIndex(plan.base);
    DYNFO_CHECK(base_index >= 0) << "unknown base relation " << plan.base;
    fo::EvalContext ctx(data_, {}, eval_options());
    plan.removals = std::make_shared<const fo::DeltaProgram>(
        algebra_.CompileDeltaRemovals(
            not_keep, rule.tuple_variables, base_index,
            static_cast<int>(rule.tuple_variables.size()), ctx));
  }
  // The path. Semi-naive needs a bounded removal program and persistent
  // indexes to probe; without it an update whose base is its own target
  // still applies as a diff. Everything else (not decomposable, delta off,
  // a chained base or a let without the removal program) runs in full.
  if (plan.removals != nullptr && plan.removals->bounded && options_.use_indexes) {
    plan.path = RulePath::kSemiNaive;
  } else if (!is_let && plan.applicable && delta_configured() &&
             plan.base == rule.target) {
    plan.path = RulePath::kDiff;
    // A quantifier-free keep is checked tuple by tuple; any other
    // non-trivial keep is evaluated set-wise.
    if (!trivial_keep) {
      plan.keep_test = fo::IsQuantifierFree(*plan.keep) ? KeepTest::kPerTuple
                                                        : KeepTest::kSetWise;
    }
  }
  return plans_.emplace(&rule, std::move(plan)).first->second;
}

void Engine::Apply(const relational::Request& request) {
  core::Status status = TryApply(request);
  DYNFO_CHECK(status.ok()) << status.ToString();
}

Engine::DenseApplyOutcome Engine::TryDenseApply(const relational::Request& request,
                                                const RequestPlan& plan,
                                                const core::ExecGovernor* governor) {
  const DenseRuleBundle& bundle = plan.dense;
  if (!bundle.eligible) return DenseApplyOutcome::kIneligible;
  // Per-request conditions: every target currently dense-backed with no
  // live indexes (a whole-plane rewrite would drop them), every
  // slot-probed input dense-backed. Any miss falls back to the rule path,
  // which is always correct.
  for (const DenseRuleEntry& entry : bundle.entries) {
    const relational::Relation& target = data_.relation(entry.target_index);
    if (target.backend() != relational::RelationBackend::kDense ||
        target.num_indexes() != 0) {
      return DenseApplyOutcome::kIneligible;
    }
  }
  for (int index : bundle.view_inputs) {
    if (data_.relation(index).backend() != relational::RelationBackend::kDense) {
      return DenseApplyOutcome::kIneligible;
    }
  }
  // Committed to the kernel path. Fold overlays so every slot-probed input
  // answers from its bit planes (deterministic: depends only on state).
  for (int index : bundle.view_inputs) data_.relation(index).PrepareDenseView();

  relational::Element params[relational::Tuple::kMaxArity] = {0, 0, 0, 0};
  int num_params = 0;
  if (request.kind == relational::RequestKind::kSetConstant) {
    params[num_params++] = request.value;
  } else {
    for (int i = 0; i < request.tuple.size(); ++i) {
      params[num_params++] = request.tuple[i];
    }
  }
  fo::DenseExecContext ctx;
  ctx.structure = &data_;
  ctx.params = params;
  ctx.num_params = num_params;
  ctx.governor = governor;
  ctx.stats = algebra_.live_stats();

  // Evaluate-then-commit: every program reads the old planes and writes an
  // exec-local result (synchronous semantics), so a governor stop aborts
  // with nothing mutated.
  fo::DenseResult results[kMaxDenseRules];
  for (size_t i = 0; i < bundle.entries.size(); ++i) {
    if (!fo::ExecuteDenseProgram(*bundle.entries[i].program, ctx, &results[i])) {
      return DenseApplyOutcome::kAborted;
    }
  }

  // Commit: whole-plane rewrites, then the input mirror; re-run the cost
  // model on everything touched (the commit-boundary contract).
  const size_t n = data_.universe_size();
  uint64_t written = 0;
  for (size_t i = 0; i < bundle.entries.size(); ++i) {
    const DenseRuleEntry& entry = bundle.entries[i];
    relational::Relation& target = data_.relation(entry.target_index);
    uint64_t* words = target.BeginDenseRewrite(n)->mutable_words();
    if (entry.arity == 0) {
      if (results[i].bit) words[0] = 1;
    } else {
      std::copy(results[i].words.begin(), results[i].words.end(), words);
    }
    target.FinishDenseRewrite();
    written += target.size();
  }
  CommitMirror(plan, request);
  for (const DenseRuleEntry& entry : bundle.entries) {
    if (entry.arity == 2) ReapplyBackend(entry.target_index);
  }

  ++stats_.requests;
  ++stats_.dense_applies;
  stats_.relations_recomputed += bundle.entries.size();
  stats_.tuples_written += written;
  return DenseApplyOutcome::kApplied;
}

void Engine::CommitMirror(const RequestPlan& plan, const relational::Request& request) {
  if (plan.mirror < 0) return;
  if (request.kind == relational::RequestKind::kSetConstant) {
    data_.set_constant(plan.mirror, request.value);
    return;
  }
  relational::Relation& rel = data_.relation(plan.mirror);
  DYNFO_CHECK(rel.arity() == request.tuple.size());
  if (request.kind == relational::RequestKind::kInsert) {
    if (rel.Insert(request.tuple)) ++stats_.tuples_inserted;
  } else {
    if (rel.Erase(request.tuple)) ++stats_.tuples_erased;
  }
  // Under a non-hash policy an arity <= 1 relation wants dense whatever its
  // size (Relation::WantsDense), so a point change can only flip an arity-2
  // relation; skip the guaranteed no-ops.
  if (rel.arity() == 2 && backend_policy() != relational::BackendPolicy::kHashOnly) {
    ReapplyBackend(plan.mirror);
  }
}

core::Status Engine::ValidateIndexes() const {
  for (int i = 0; i < data_.vocabulary().num_relations(); ++i) {
    core::Status status = data_.relation(i).ValidateIndexes();
    if (!status.ok()) {
      return core::Status::Corruption("relation " +
                                      data_.vocabulary().relation(i).name + ": " +
                                      status.message());
    }
  }
  return core::Status();
}

void Engine::RebuildCompiledState() {
  for (int i = 0; i < data_.vocabulary().num_relations(); ++i) {
    data_.relation(i).DropIndexes();
  }
  plans_.clear();
  algebra_.ClearPlanCache();
  PrecompileProgram();
}

void Engine::CheckTrustedRequest(const relational::Request& request) const {
  DYNFO_CHECK(!(program_->semi_dynamic() &&
                request.kind == relational::RequestKind::kDelete))
      << program_->name() << " is semi-dynamic (Dyn_s): deletes are not supported";
}

core::Status Engine::TryApply(const relational::Request& request,
                              const ApplyGovernance& governance, bool naive,
                              BatchReport* report) {
  // Dense whole-request fast path, ungoverned form: checked before any
  // governance scaffolding or clocks — the kernels answer small-universe
  // requests in well under the cost of a steady_clock read. `report`
  // callers fall through (the batch path owns report bookkeeping), as do
  // naive-pinned requests.
  if (!governance.active() && report == nullptr && !naive && dense_configured()) {
    CheckTrustedRequest(request);
    switch (TryDenseApply(request, PlanForRequest(request.kind, request.target),
                          nullptr)) {
      case DenseApplyOutcome::kApplied:
        return core::Status();
      case DenseApplyOutcome::kAborted:
        DYNFO_UNREACHABLE();  // no governor attached
      case DenseApplyOutcome::kIneligible:
        break;
    }
  }
  return ApplyRequests(std::span<const relational::Request>(&request, 1), governance,
                       naive, report);
}

void Engine::ApplyBatch(std::span<const relational::Request> requests) {
  core::Status status = TryApplyBatch(requests);
  DYNFO_CHECK(status.ok()) << status.ToString();
}

core::Status Engine::TryApplyBatch(std::span<const relational::Request> requests,
                                   const ApplyGovernance& governance,
                                   BatchReport* report) {
  BatchReport local;
  core::Status status = ApplyRequests(requests, governance, /*naive=*/false, &local);
  if (local.applied > 0) {
    ++stats_.batches;
    stats_.batch_requests += local.applied;
  }
  if (report != nullptr) *report = local;
  return status;
}

core::Status Engine::ApplyRequests(std::span<const relational::Request> requests,
                                   const ApplyGovernance& governance, bool naive,
                                   BatchReport* report) {
  // One governor for the whole sequence: the deadline, cancellation token,
  // and resource budget cover every request in it, and the setup cost — the
  // per-request constant a batch amortizes — is paid once. An inactive
  // governance keeps `governor` null so every poll below is one pointer
  // compare.
  const bool governed = governance.active();
  core::ResourceBudget budget(governance.limits);
  if (governance.fail_alloc_after_charges != 0) {
    budget.FailAfterCharges(governance.fail_alloc_after_charges);
  }
  core::ExecGovernor governor_storage(governance.deadline(), governance.cancel, &budget);
  if (governance.trip_after_checks != 0) {
    governor_storage.TripAtCheck(governance.trip_after_checks);
  }
  if (governance.stall_at_check != 0) {
    governor_storage.StallAtCheck(governance.stall_at_check, governance.stall_ms);
  }
  const core::ExecGovernor* governor = governed ? &governor_storage : nullptr;

  size_t applied = 0;
  auto finish = [&](core::Status status) {
    if (report != nullptr) {
      report->code = governed ? governor_storage.code() : core::StatusCode::kOk;
      report->applied = applied;
      report->governor_checks = governed ? governor_storage.checks() : 0;
      report->tuples_charged = budget.tuples_charged();
      report->bytes_charged = budget.bytes_charged();
    }
    return status;
  };

  // One acceptance sweep up front: a request the program does not accept
  // anywhere in the sequence rejects ALL of it before anything applies, so
  // a group commit never records a batch that was only partially
  // acceptable. Untrusted callers reach the engine through governance and
  // get typed errors instead of downstream CHECK failures.
  for (const relational::Request& request : requests) {
    if (!governed) {
      CheckTrustedRequest(request);
      continue;
    }
    core::Status accepted = program_->ValidateRequest(request, data_.universe_size());
    if (!accepted.ok()) return finish(accepted);
  }

  // Sequential synchronous steps — the ONLY evaluation order that is
  // bit-identical to per-request Apply in general, since request k+1's
  // update formulas must read the structure as request k left it. Each
  // request stays individually atomic (evaluate-then-commit), so a governor
  // stop leaves the engine at the last fully-applied prefix.
  for (const relational::Request& request : requests) {
    core::Status status = ApplyCore(request, governor, naive);
    if (!status.ok()) return finish(status);
    ++applied;
  }
  return finish(core::Status());
}

relational::RequestSequence Engine::MaterializeDefinableChange(
    const DefinableChange& change) const {
  DYNFO_CHECK(change.mode != relational::RequestKind::kSetConstant)
      << "definable changes insert or delete tuple sets";
  const int index = program_->input_vocabulary()->RelationIndex(change.target);
  DYNFO_CHECK(index >= 0) << "definable change targets unknown input relation "
                          << change.target;
  DYNFO_CHECK(program_->input_vocabulary()->relation(index).arity ==
              static_cast<int>(change.tuple_variables.size()))
      << "definable change arity mismatch for " << change.target;
  DYNFO_CHECK(change.formula != nullptr) << "definable change without a formula";

  // The change set, evaluated like an update rule's right-hand side: the
  // configured evaluator compiles the formula through the plan cache (and
  // probes persistent indexes) exactly as the per-request hot path does.
  fo::EvalContext ctx(data_, {}, eval_options());
  relational::Relation result = Evaluate(change.formula, change.tuple_variables, ctx);

  // Canonical order: sorted tuples, so the expansion — and therefore the
  // journal and every downstream state — is identical whichever evaluator
  // or backend materialized the set.
  std::vector<relational::Tuple> tuples(result.begin(), result.end());
  std::sort(tuples.begin(), tuples.end());
  relational::RequestSequence out;
  out.reserve(tuples.size());
  for (const relational::Tuple& t : tuples) {
    out.push_back(change.mode == relational::RequestKind::kInsert
                      ? relational::Request::Insert(change.target, t)
                      : relational::Request::Delete(change.target, t));
  }
  return out;
}

core::Status Engine::TryApplyDefinable(const DefinableChange& change,
                                       const ApplyGovernance& governance,
                                       BatchReport* report) {
  const relational::RequestSequence requests = MaterializeDefinableChange(change);
  return TryApplyBatch(requests, governance, report);
}

namespace {

/// One semi-naive step: erase `removals` from a relation, then insert
/// `additions`.
struct DeltaOps {
  std::vector<relational::Tuple> removals;
  std::vector<relational::Tuple> additions;
};

/// A let computed as base ± op records its op chain back to a root relation,
/// so an update rule whose decomposition base is that let can replay the
/// chain onto its own target in place.
struct LetProvenance {
  std::string root;           ///< the non-let relation the chain starts from
  std::vector<DeltaOps> ops;  ///< replay in order: root ± ops == let value
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// One rule's value, landed by one of two commit strategies: swap in
/// `replacement` (a kFull result, or a copy-on-write copy of the base with
/// the delta applied), or replay `chain` and then `delta` onto the target in
/// place, which keeps the target's persistent indexes alive.
struct Engine::RuleValue {
  const UpdateRule* rule = nullptr;
  const DeltaPlan* plan = nullptr;
  RulePath path = RulePath::kFull;  ///< the path this request ran it on
  bool in_place = false;
  relational::Relation replacement{0};
  std::vector<DeltaOps> chain;
  DeltaOps delta;
  uint64_t erased = 0;  ///< ops that changed `replacement` from the base
  uint64_t inserted = 0;
};

/// One request's evaluation state. Work is tallied here and folded into
/// stats_ only past the abort point, so an aborted request leaves the
/// counters (and therefore Snapshot(), which embeds the request count)
/// untouched.
struct Engine::RequestState {
  bool naive = false;
  bool count_fallbacks = false;  ///< kFull rules count as delta fallbacks
  std::map<std::string, LetProvenance> let_provenance;  ///< by let target
  /// Governed only: each let target's pre-request value, restored on abort.
  std::vector<std::pair<std::string, relational::Relation>> let_rollback;
  std::vector<RuleValue> staged;
  Stats tally;

  void Count(const RuleValue& value, bool is_let) {
    if (value.path == RulePath::kFull) {
      ++tally.relations_recomputed;
      tally.tuples_written += value.replacement.size();
      if (count_fallbacks) ++tally.fallback_recomputes;
      return;
    }
    if (value.path == RulePath::kSemiNaive) ++tally.delta_rules;
    // Lets and in-place replays count their own delta (a replayed chain was
    // counted when its lets ran); an update built on a base copy counts the
    // ops that changed the copy.
    const DeltaOps& delta = value.delta;
    const uint64_t written = is_let || value.in_place
                                 ? delta.removals.size() + delta.additions.size()
                                 : value.erased + value.inserted;
    tally.tuples_delta_written += written;
    tally.tuples_written += written;
    if (is_let) return;
    ++tally.delta_applications;
    tally.tuples_erased += value.erased;
    tally.tuples_inserted += value.inserted;
  }
};

core::Status Engine::ApplyCore(const relational::Request& request,
                               const core::ExecGovernor* governor, bool naive) {
  const RequestPlan& plan = PlanForRequest(request.kind, request.target);
  // Governed (or report-carrying, or batched) dense path: the same kernels
  // with the governor polled between ops and inside row loops. An abort
  // mutates nothing.
  if (!naive) {
    switch (TryDenseApply(request, plan, governor)) {
      case DenseApplyOutcome::kApplied:
        return core::Status();
      case DenseApplyOutcome::kAborted:
        return governor->status();
      case DenseApplyOutcome::kIneligible:
        break;
    }
  }

  std::vector<relational::Element> params;
  if (request.kind == relational::RequestKind::kSetConstant) {
    params = {request.value};
  } else {
    for (int i = 0; i < request.tuple.size(); ++i) params.push_back(request.tuple[i]);
  }
  fo::EvalContext ctx(data_, params, eval_options());
  ctx.governor = governor;
  RequestState state;
  state.naive = naive;
  state.count_fallbacks = !naive && delta_configured();

  const auto eval_start = std::chrono::steady_clock::now();
  if (RunLets(plan, ctx, &state)) StageUpdates(plan, ctx, &state);
  // The abort point: every update is staged and only lets have touched
  // data_; nothing past this line can fail, so commit is all-or-nothing.
  if (governor != nullptr && governor->stopped()) {
    for (auto it = state.let_rollback.rbegin(); it != state.let_rollback.rend(); ++it) {
      data_.relation(it->first) = std::move(it->second);
    }
    return governor->status();
  }
  const Stats& tally = state.tally;
  ++stats_.requests;
  stats_.relations_recomputed += tally.relations_recomputed;
  stats_.delta_applications += tally.delta_applications;
  stats_.tuples_inserted += tally.tuples_inserted;
  stats_.tuples_erased += tally.tuples_erased;
  stats_.tuples_written += tally.tuples_written;
  stats_.tuples_delta_written += tally.tuples_delta_written;
  stats_.delta_rules += tally.delta_rules;
  stats_.fallback_recomputes += tally.fallback_recomputes;
  stats_.update_wall_seconds += SecondsSince(eval_start);

  const auto commit_start = std::chrono::steady_clock::now();
  Commit(plan, request, &state);
  stats_.commit_seconds += SecondsSince(commit_start);
  return core::Status();
}

Engine::RuleValue Engine::EvaluateRule(const UpdateRule& rule, bool is_let,
                                       const fo::EvalContext& ctx,
                                       const RequestState& state) {
  RuleValue value;
  value.rule = &rule;
  value.plan = &PlanFor(rule, is_let);
  const DeltaPlan& plan = *value.plan;
  value.path = state.naive ? RulePath::kFull : plan.path;
  if (value.path == RulePath::kFull) {
    value.replacement = Evaluate(rule.formula, rule.tuple_variables, ctx, state.naive);
    return value;
  }
  // Removals: base tuples failing the keep-filter. The semi-naive program
  // emits them directly (O(delta)); the diff path scans the whole stored
  // target.
  std::vector<relational::Tuple>& removals = value.delta.removals;
  if (value.path == RulePath::kSemiNaive) {
    removals = algebra_.DeltaRemovals(*plan.removals, ctx);
  } else if (plan.keep_test != KeepTest::kNone) {
    relational::Relation keep_set{0};
    if (plan.keep_test == KeepTest::kSetWise) {
      keep_set = algebra_.EvaluateAsRelation(plan.keep, rule.tuple_variables, ctx);
    }
    size_t polls = 0;
    for (const relational::Tuple& t : data_.relation(rule.target)) {
      if (core::StridedStop(ctx.governor, &polls)) break;
      bool kept = false;
      if (plan.keep_test == KeepTest::kSetWise) {
        kept = keep_set.Contains(t);
      } else {
        fo::Env env;
        for (size_t i = 0; i < rule.tuple_variables.size(); ++i) {
          env.Push(rule.tuple_variables[i], t[static_cast<int>(i)]);
        }
        kept = fo::NaiveEvaluator::Holds(*plan.keep, ctx, &env);
      }
      if (!kept) removals.push_back(t);
    }
    ctx.Charge(removals.size(), rule.tuple_variables.size());
  }
  if (plan.additions->kind() != fo::FormulaKind::kFalse) {
    const relational::Relation adds =
        algebra_.EvaluateAsRelation(plan.additions, rule.tuple_variables, ctx);
    value.delta.additions.assign(adds.begin(), adds.end());
  }
  // An update replays in place when its base is its own target or a let
  // whose op chain roots at it. Every other delta — a let's always, since
  // lets commit at once — becomes a copy of the base with the delta applied.
  if (!is_let) {
    const auto prov = state.let_provenance.find(plan.base);
    if (plan.base == rule.target) {
      value.in_place = true;
    } else if (prov != state.let_provenance.end() && prov->second.root == rule.target) {
      value.in_place = true;
      value.chain = prov->second.ops;
    }
    if (value.in_place) return value;
  }
  value.replacement = data_.relation(plan.base);
  for (const relational::Tuple& t : removals) {
    if (value.replacement.Erase(t)) ++value.erased;
  }
  for (const relational::Tuple& t : value.delta.additions) {
    if (value.replacement.Insert(t)) ++value.inserted;
  }
  return value;
}

bool Engine::RunLets(const RequestPlan& plan, const fo::EvalContext& ctx,
                     RequestState* state) {
  if (plan.rules == nullptr) return true;
  // Validated programs use distinct let targets, so a let never shadows a
  // non-let relation's old value. Ungoverned requests never abort and skip
  // the rollback copies.
  for (const UpdateRule& rule : plan.rules->lets) {
    RuleValue value = EvaluateRule(rule, /*is_let=*/true, ctx, *state);
    state->Count(value, /*is_let=*/true);
    if (value.path == RulePath::kSemiNaive) {
      const std::string& base = value.plan->base;
      const auto chained = state->let_provenance.find(base);
      LetProvenance prov = chained != state->let_provenance.end()
                               ? chained->second
                               : LetProvenance{base, {}};
      prov.ops.push_back(std::move(value.delta));
      state->let_provenance[rule.target] = std::move(prov);
    }
    if (ctx.governor != nullptr) {
      if (ctx.governor->stopped()) return false;
      state->let_rollback.emplace_back(rule.target, data_.relation(rule.target));
    }
    data_.relation(rule.target) = std::move(value.replacement);
  }
  return true;
}

void Engine::StageUpdates(const RequestPlan& plan, const fo::EvalContext& ctx,
                          RequestState* state) {
  if (plan.rules == nullptr) return;
  // Synchronous semantics makes the rules independent: each reads only the
  // old structure (plus lets).
  for (const UpdateRule& rule : plan.rules->updates) {
    state->staged.push_back(EvaluateRule(rule, /*is_let=*/false, ctx, *state));
    state->Count(state->staged.back(), /*is_let=*/false);
  }
}

void Engine::Commit(const RequestPlan& plan, const relational::Request& request,
                    RequestState* state) {
  for (RuleValue& value : state->staged) {
    relational::Relation& target = data_.relation(value.rule->target);
    if (!value.in_place) {
      target = std::move(value.replacement);
      continue;
    }
    value.chain.push_back(std::move(value.delta));
    for (const DeltaOps& op : value.chain) {
      for (const relational::Tuple& t : op.removals) {
        if (target.Erase(t)) ++stats_.tuples_erased;
      }
      for (const relational::Tuple& t : op.additions) {
        if (target.Insert(t)) ++stats_.tuples_inserted;
      }
    }
  }
  CommitMirror(plan, request);
  // Commit boundary: re-run the backend cost model on everything this
  // request wrote, so backend choice is a deterministic function of the
  // committed state (same options + same history => byte-identical
  // snapshots, whichever paths the requests took).
  if (backend_policy() == relational::BackendPolicy::kHashOnly || plan.rules == nullptr) {
    return;
  }
  for (const UpdateRule& rule : plan.rules->lets) {
    ReapplyBackend(data_.vocabulary().RelationIndex(rule.target));
  }
  for (const UpdateRule& rule : plan.rules->updates) {
    ReapplyBackend(data_.vocabulary().RelationIndex(rule.target));
  }
}

std::string Engine::Snapshot() const {
  return relational::WrapChecksummed(
      "snapshot", "program " + program_->name() + "\nsteps " +
                      std::to_string(stats_.requests) + "\n" +
                      relational::WriteStructure(data_));
}

core::Status Engine::Restore(const std::string& snapshot) {
  core::Result<std::string> payload =
      relational::UnwrapChecksummed("snapshot", snapshot);
  if (!payload.ok()) return payload.status();

  std::istringstream in(payload.value());
  std::string keyword, name;
  if (!(in >> keyword >> name) || keyword != "program") {
    return core::Status::Error("snapshot missing 'program' line");
  }
  if (name != program_->name()) {
    return core::Status::Error("snapshot is for program '" + name + "', engine runs '" +
                               program_->name() + "'");
  }
  std::string steps_token;
  uint64_t steps = 0;
  if (!(in >> keyword >> steps_token) || keyword != "steps" ||
      !core::ParseU64(steps_token, &steps)) {
    return core::Status::Error("snapshot missing 'steps' line");
  }
  std::string rest;
  std::getline(in, rest);  // consume the newline after the steps line
  std::ostringstream structure_text;
  structure_text << in.rdbuf();

  core::Result<relational::Structure> restored =
      relational::ReadStructure(structure_text.str(), program_->data_vocabulary());
  if (!restored.ok()) {
    return core::Status::Error("snapshot structure: " + restored.status().message());
  }
  if (restored.value().universe_size() != data_.universe_size()) {
    return core::Status::Error(
        "snapshot universe size " + std::to_string(restored.value().universe_size()) +
        " != engine's " + std::to_string(data_.universe_size()));
  }
  data_ = std::move(restored).value();
  stats_.requests = steps;
  // Snapshots carry each relation's backend but not this engine's policy;
  // stamp it. Inside the hysteresis band this converts nothing (the band
  // test honors the serialized backend), so restoring a writer's snapshot
  // under the writer's options reproduces its state byte-for-byte.
  backend_conversions_ += data_.ConfigureBackends(backend_policy());
  // The restored structure carries no indexes and cached plans may have been
  // compiled against pre-restore state assumptions: drop the delta-plan map
  // and the plan cache, then recompile so the plans' indexes are registered
  // on the restored relations before the next request.
  plans_.clear();
  algebra_.ClearPlanCache();
  PrecompileProgram();
  return core::Status();
}

bool Engine::QueryBool(std::vector<relational::Element> params) const {
  const fo::FormulaPtr& query = program_->bool_query();
  DYNFO_CHECK(query != nullptr) << program_->name() << " has no boolean query";
  // A nullary-atom query is a stored bit: read it off the plane directly —
  // no kernel, no evaluator. Falls through when an overlay is pending.
  if (dense_query_bit_ >= 0 && params.empty()) {
    if (const relational::DenseSet* view =
            data_.relation(dense_query_bit_).DenseBaseView()) {
      return (view->words()[0] & uint64_t{1}) != 0;
    }
  }
  // Dense route when the query lowered: a rank-0 kernel over the stored
  // planes. Read-only (missing views degrade to per-tuple probes inside the
  // executor), so it never perturbs state — queries stay "free".
  if (dense_query_ != nullptr &&
      params.size() <= static_cast<size_t>(relational::Tuple::kMaxArity)) {
    relational::Element pbuf[relational::Tuple::kMaxArity] = {0, 0, 0, 0};
    for (size_t i = 0; i < params.size(); ++i) pbuf[i] = params[i];
    fo::DenseExecContext ctx;
    ctx.structure = &data_;
    ctx.params = pbuf;
    ctx.num_params = static_cast<int>(params.size());
    ctx.stats = algebra_.live_stats();
    fo::DenseResult result;
    if (fo::ExecuteDenseProgram(*dense_query_, ctx, &result)) return result.bit;
  }
  return QuerySentence(query, std::move(params));
}

bool Engine::QuerySentence(const fo::FormulaPtr& sentence,
                           std::vector<relational::Element> params) const {
  fo::EvalContext ctx(data_, std::move(params), eval_options());
  if (options_.eval_mode == EvalMode::kNaive) {
    return fo::NaiveEvaluator::HoldsSentence(sentence, ctx);
  }
  return algebra_.HoldsSentence(sentence, ctx);
}

relational::Relation Engine::QueryRelation(const std::string& name,
                                           std::vector<relational::Element> params) const {
  const NamedQuery* query = program_->FindNamedQuery(name);
  DYNFO_CHECK(query != nullptr) << program_->name() << " has no query named " << name;
  fo::EvalContext ctx(data_, std::move(params), eval_options());
  return Evaluate(query->formula, query->tuple_variables, ctx);
}

}  // namespace dynfo::dyn
