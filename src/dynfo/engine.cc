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

bool IsQuantifierFree(const fo::Formula& f) {
  if (f.kind() == fo::FormulaKind::kExists || f.kind() == fo::FormulaKind::kForall) {
    return false;
  }
  for (const fo::FormulaPtr& child : f.children()) {
    if (!IsQuantifierFree(*child)) return false;
  }
  return true;
}

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

bool HasDuplicates(const std::vector<std::string>& names) {
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) return true;
    }
  }
  return false;
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

void Engine::BuildDenseBundles() {
  dense_rules_.clear();
  dense_memo_.Clear();
  dense_query_ = nullptr;
  dense_query_bit_ = -1;
  if (backend_policy() == relational::BackendPolicy::kHashOnly ||
      !options_.use_compiled_plans) {
    return;
  }
  // Stack-array bound in TryDenseApply; no real program comes close.
  constexpr size_t kMaxDenseRules = 16;
  const relational::Vocabulary& vocab = data_.vocabulary();
  for (const auto& [key, rules] : program_->rules()) {
    DenseRuleBundle bundle;
    bundle.eligible =
        rules.lets.empty() && !rules.updates.empty() &&
        rules.updates.size() <= kMaxDenseRules;
    std::set<int> views;
    for (const UpdateRule& rule : rules.updates) {
      if (!bundle.eligible) break;
      DenseRuleEntry entry;
      entry.target_index = vocab.RelationIndex(rule.target);
      entry.arity = static_cast<int>(rule.tuple_variables.size());
      // Duplicate tuple variables would need a diagonal restriction after
      // the kernel; the legacy path handles them instead.
      if (entry.target_index < 0 ||
          entry.arity > relational::DenseSet::kMaxDenseArity ||
          HasDuplicates(rule.tuple_variables)) {
        bundle.eligible = false;
        break;
      }
      entry.program = fo::LowerToDense(rule.formula, rule.tuple_variables, vocab);
      if (entry.program == nullptr) {
        bundle.eligible = false;
        break;
      }
      views.insert(entry.program->view_relations.begin(),
                   entry.program->view_relations.end());
      bundle.entries.push_back(std::move(entry));
    }
    if (!bundle.eligible) bundle.entries.clear();
    bundle.view_inputs.assign(views.begin(), views.end());
    // Mirror plumbing, precomputed to mirror TryApply's tail exactly.
    if (key.first == relational::RequestKind::kSetConstant) {
      bundle.mirror_constant = vocab.ConstantIndex(key.second);
    } else {
      bool shadowed = false;
      for (const UpdateRule& rule : rules.updates) {
        if (rule.target == key.second) shadowed = true;
      }
      if (!shadowed) bundle.mirror_relation = vocab.RelationIndex(key.second);
    }
    dense_rules_.emplace(&rules, std::move(bundle));
  }
  if (program_->bool_query() != nullptr) {
    dense_query_ = fo::LowerToDense(program_->bool_query(), {}, vocab);
    if (dense_query_ != nullptr &&
        dense_query_->root->kind == fo::DenseOpKind::kAtom &&
        dense_query_->root->relation_arity == 0 &&
        dense_query_->root->args.empty()) {
      dense_query_bit_ = dense_query_->root->relation_index;
    }
  }
}

void Engine::PrecompileProgram() {
  BuildDenseBundles();
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
    // The diff path evaluates the keep-filter set-wise unless it is trivial
    // or quantifier-free (checked tuple by tuple).
    if (plan.path == RulePath::kDiff && plan.keep->kind() != fo::FormulaKind::kTrue &&
        !IsQuantifierFree(*plan.keep)) {
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
  if (plan.applicable && delta_configured() && options_.use_compiled_plans &&
      // Duplicate tuple variables make position→column mapping ambiguous
      // for a removal plan (harmless when nothing is ever removed).
      (trivial_keep || !HasDuplicates(rule.tuple_variables))) {
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
  }
  return plans_.emplace(&rule, std::move(plan)).first->second;
}

void Engine::Apply(const relational::Request& request) {
  core::Status status = TryApply(request);
  DYNFO_CHECK(status.ok()) << status.ToString();
}

Engine::DenseApplyOutcome Engine::TryDenseApply(
    const relational::Request& request, const core::ExecGovernor* governor) {
  DenseLookupMemo::Entry& memo =
      dense_memo_.by_kind[static_cast<int>(request.kind)];
  if (memo.bundle == nullptr || memo.target != request.target) {
    const RequestRules* rules = program_->RulesFor(request.kind, request.target);
    if (rules == nullptr) return DenseApplyOutcome::kIneligible;
    const auto found = dense_rules_.find(rules);
    if (found == dense_rules_.end()) return DenseApplyOutcome::kIneligible;
    memo.target = request.target;
    memo.bundle = &found->second;
  }
  const DenseRuleBundle& bundle = *memo.bundle;
  if (!bundle.eligible) return DenseApplyOutcome::kIneligible;
  // Per-request conditions: every target currently dense-backed with no
  // live indexes (a whole-plane rewrite would drop them), every
  // slot-probed input dense-backed. Any miss falls back to the legacy
  // path, which is always correct.
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
  constexpr size_t kMaxDenseRules = 16;  // enforced by BuildDenseBundles
  fo::DenseResult results[kMaxDenseRules];
  for (size_t i = 0; i < bundle.entries.size(); ++i) {
    if (!fo::ExecuteDenseProgram(*bundle.entries[i].program, ctx, &results[i])) {
      return DenseApplyOutcome::kAborted;
    }
  }

  // Commit: whole-plane rewrites, then the usual input mirror; re-run the
  // cost model on everything touched (the commit-boundary contract).
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
  switch (request.kind) {
    case relational::RequestKind::kInsert:
    case relational::RequestKind::kDelete: {
      if (bundle.mirror_relation < 0) break;
      relational::Relation& rel = data_.relation(bundle.mirror_relation);
      DYNFO_CHECK(rel.arity() == request.tuple.size());
      if (request.kind == relational::RequestKind::kInsert) {
        if (rel.Insert(request.tuple)) ++stats_.tuples_inserted;
      } else {
        if (rel.Erase(request.tuple)) ++stats_.tuples_erased;
      }
      // Arity <= 1 wants dense under every non-hash policy regardless of
      // size (see Relation::WantsDense), and this path only runs on dense
      // relations under such a policy — the cost model can only flip an
      // arity-2 plane, so skip the guaranteed no-ops on the hot path.
      if (rel.arity() == 2) ReapplyBackend(bundle.mirror_relation);
      break;
    }
    case relational::RequestKind::kSetConstant:
      if (bundle.mirror_constant >= 0) {
        data_.set_constant(bundle.mirror_constant, request.value);
      }
      break;
  }
  for (const DenseRuleEntry& entry : bundle.entries) {
    if (entry.arity == 2) ReapplyBackend(entry.target_index);
  }

  ++stats_.requests;
  ++stats_.dense_applies;
  stats_.relations_recomputed += bundle.entries.size();
  stats_.tuples_written += written;
  return DenseApplyOutcome::kApplied;
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
  if (!governance.active() && report == nullptr && !naive && !dense_rules_.empty()) {
    CheckTrustedRequest(request);
    switch (TryDenseApply(request, nullptr)) {
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

core::Status Engine::ApplyCore(const relational::Request& request,
                               const core::ExecGovernor* governor, bool naive) {
  const bool governed = governor != nullptr;

  // Governed (or report-carrying, or batched) dense path: the same kernels
  // with the governor polled between ops and inside row loops. An abort
  // mutates nothing.
  if (!naive && !dense_rules_.empty()) {
    switch (TryDenseApply(request, governor)) {
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

  const RequestRules* rules = program_->RulesFor(request.kind, request.target);
  const auto phase_start = std::chrono::steady_clock::now();
  auto seconds_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Stats are accumulated locally and folded into stats_ only after the
  // commit point: an aborted Apply leaves the counters (and therefore
  // Snapshot(), which embeds the request count) untouched.
  uint64_t lets_recomputed = 0;
  uint64_t lets_tuples_written = 0;
  uint64_t lets_delta_rules = 0;
  uint64_t lets_fallbacks = 0;
  uint64_t lets_delta_written = 0;

  // One semi-naive step: erase `removals` from a relation, then insert
  // `additions`. A let computed as base ± op records its op chain back to a
  // root relation (LetProvenance) so an update rule whose decomposition base
  // is that let can replay the chain onto its own target in place — keeping
  // the target's persistent indexes alive across the Apply.
  struct DeltaOps {
    std::vector<relational::Tuple> removals;
    std::vector<relational::Tuple> additions;
  };
  struct LetProvenance {
    std::string root;           ///< the non-let relation the chain starts from
    std::vector<DeltaOps> ops;  ///< replay in order: root ± ops == let value
  };
  std::map<std::string, LetProvenance> let_provenance;

  // Each rule runs on the path PlanFor chose, except that a naive-pinned
  // request runs every rule in full (and so counts no fallbacks).
  const bool count_fallbacks = !naive && delta_configured();
  auto path_of = [naive](const DeltaPlan& plan) {
    return naive ? RulePath::kFull : plan.path;
  };

  // Temporaries: evaluated in order, committed immediately so later rules in
  // this same request can read them. They never shadow non-let relations'
  // old values because validated programs use distinct let targets. Because
  // lets mutate data_ before the request's commit point, a governed Apply
  // snapshots each let's old value and rolls it back on abort (ungoverned
  // Applies never abort and skip the copies).
  std::vector<std::pair<std::string, relational::Relation>> let_rollback;
  auto abort_with = [&](core::Status status) {
    for (auto it = let_rollback.rbegin(); it != let_rollback.rend(); ++it) {
      data_.relation(it->first) = std::move(it->second);
    }
    return status;
  };

  if (rules != nullptr) {
    for (const UpdateRule& rule : rules->lets) {
      const DeltaPlan& plan = PlanFor(rule, /*is_let=*/true);
      relational::Relation result{0};
      if (path_of(plan) == RulePath::kSemiNaive) {
        // Semi-naive: the let is base ± a small delta. Share the base's
        // storage (copy-on-write) and touch only the changed tuples.
        DeltaOps op;
        op.removals = algebra_.DeltaRemovals(*plan.removals, ctx);
        if (plan.additions->kind() != fo::FormulaKind::kFalse) {
          relational::Relation adds =
              algebra_.EvaluateAsRelation(plan.additions, rule.tuple_variables, ctx);
          op.additions.assign(adds.begin(), adds.end());
        }
        result = data_.relation(plan.base);
        for (const relational::Tuple& t : op.removals) result.Erase(t);
        for (const relational::Tuple& t : op.additions) result.Insert(t);
        lets_delta_written += op.removals.size() + op.additions.size();
        ++lets_delta_rules;
        LetProvenance prov;
        auto chained = let_provenance.find(plan.base);
        if (chained != let_provenance.end()) {
          prov = chained->second;
        } else {
          prov.root = plan.base;
        }
        prov.ops.push_back(std::move(op));
        let_provenance[rule.target] = std::move(prov);
      } else {
        result = Evaluate(rule.formula, rule.tuple_variables, ctx, naive);
        ++lets_recomputed;
        lets_tuples_written += result.size();
        if (count_fallbacks) ++lets_fallbacks;
      }
      if (governed && governor->stopped()) {
        return abort_with(governor->status());
      }
      if (governed) {
        let_rollback.emplace_back(rule.target, data_.relation(rule.target));
      }
      data_.relation(rule.target) = std::move(result);
    }
  }

  // Main updates: evaluate everything against the pre-request state (plus
  // lets), then commit atomically. Synchronous semantics makes the rules
  // independent — each reads only the old structure.
  struct Staged {
    const UpdateRule* rule = nullptr;
    const DeltaPlan* plan = nullptr;
    RulePath path = RulePath::kFull;  ///< the path this request ran it on
    /// Commit strategy when the decomposition base is another relation:
    /// replace_with_delta swaps in a copy-on-write copy of base ± delta;
    /// in_place_compose replays the base let's op chain (plus this rule's own
    /// delta) onto the target, preserving its persistent indexes.
    bool replace_with_delta = false;
    bool in_place_compose = false;
    relational::Relation replacement{0};
    std::vector<relational::Tuple> removals;
    relational::Relation additions{0};
    std::vector<DeltaOps> compose_ops;
    uint64_t staged_erased = 0;
    uint64_t staged_inserted = 0;
  };
  std::vector<Staged> staged;
  std::set<std::string> targeted;
  if (rules != nullptr) {
    for (const UpdateRule& rule : rules->updates) {
      targeted.insert(rule.target);  // distinct: DynProgram::Validate
      Staged s;
      s.rule = &rule;
      s.plan = &PlanFor(rule, /*is_let=*/false);
      staged.push_back(std::move(s));
    }
  }

  for (Staged& s : staged) {
    const UpdateRule& rule = *s.rule;
    const DeltaPlan& plan = *s.plan;
    s.path = path_of(plan);
    if (s.path == RulePath::kFull) {
      s.replacement = Evaluate(rule.formula, rule.tuple_variables, ctx, naive);
      continue;
    }
    // Removals: base tuples failing the keep-filter. With a bounded removal
    // program they come straight out of the compiled plan (O(delta)); the
    // diff path's scans below walk the whole stored relation.
    if (s.path == RulePath::kSemiNaive) {
      s.removals = algebra_.DeltaRemovals(*plan.removals, ctx);
    } else if (plan.keep->kind() != fo::FormulaKind::kTrue) {
      const relational::Relation& old = data_.relation(rule.target);
      size_t polls = 0;
      auto strided_stop = [&] {
        return governor != nullptr &&
               (polls++ % core::kGovernorStride) == 0 && ctx.ShouldStop();
      };
      if (IsQuantifierFree(*plan.keep)) {
        for (const relational::Tuple& t : old) {
          if (strided_stop()) break;
          fo::Env env;
          for (size_t i = 0; i < rule.tuple_variables.size(); ++i) {
            env.Push(rule.tuple_variables[i], t[static_cast<int>(i)]);
          }
          if (!fo::NaiveEvaluator::Holds(*plan.keep, ctx, &env)) s.removals.push_back(t);
        }
      } else {
        relational::Relation keep_set =
            algebra_.EvaluateAsRelation(plan.keep, rule.tuple_variables, ctx);
        for (const relational::Tuple& t : old) {
          if (strided_stop()) break;
          if (!keep_set.Contains(t)) s.removals.push_back(t);
        }
      }
      ctx.Charge(s.removals.size(), rule.tuple_variables.size());
    }
    // Additions.
    if (plan.additions->kind() != fo::FormulaKind::kFalse) {
      s.additions =
          algebra_.EvaluateAsRelation(plan.additions, rule.tuple_variables, ctx);
    } else {
      s.additions = relational::Relation(static_cast<int>(rule.tuple_variables.size()));
    }
    // Base is another relation (semi-naive only): either the base is a let
    // whose delta chain roots at this rule's target (replay in place at
    // commit), or the new value is a copy-on-write copy of the base with
    // this delta applied.
    if (plan.base != rule.target) {
      auto prov = let_provenance.find(plan.base);
      if (prov != let_provenance.end() && prov->second.root == rule.target) {
        s.in_place_compose = true;
        s.compose_ops = prov->second.ops;
      } else {
        s.replace_with_delta = true;
        s.replacement = data_.relation(plan.base);
        for (const relational::Tuple& t : s.removals) {
          if (s.replacement.Erase(t)) ++s.staged_erased;
        }
        for (const relational::Tuple& t : s.additions) {
          if (s.replacement.Insert(t)) ++s.staged_inserted;
        }
      }
    }
  }

  // The abort point: every result so far is staged (or rolled back below);
  // nothing past this line can fail, so commit is all-or-nothing.
  if (governed && governor->stopped()) {
    return abort_with(governor->status());
  }

  // Work accounting happens after the abort point so a cancelled Apply
  // leaves stats untouched.
  ++stats_.requests;
  stats_.relations_recomputed += lets_recomputed;
  stats_.tuples_written += lets_tuples_written + lets_delta_written;
  stats_.tuples_delta_written += lets_delta_written;
  stats_.delta_rules += lets_delta_rules;
  stats_.fallback_recomputes += lets_fallbacks;
  for (const Staged& s : staged) {
    if (s.path == RulePath::kFull) {
      ++stats_.relations_recomputed;
      stats_.tuples_written += s.replacement.size();
      if (count_fallbacks) ++stats_.fallback_recomputes;
    } else {
      ++stats_.delta_applications;
      if (s.path == RulePath::kSemiNaive) ++stats_.delta_rules;
      // Replayed compose_ops were counted when their lets ran; charge only
      // this rule's own delta.
      const uint64_t delta_written =
          s.replace_with_delta ? s.staged_erased + s.staged_inserted
                               : s.removals.size() + s.additions.size();
      stats_.tuples_delta_written += delta_written;
      stats_.tuples_written += delta_written;
      // Case C applied its delta to the staged copy at eval time; fold the
      // counts the commit loop would otherwise have recorded.
      stats_.tuples_erased += s.staged_erased;
      stats_.tuples_inserted += s.staged_inserted;
    }
  }
  stats_.update_wall_seconds += seconds_since(phase_start);

  // Commit.
  const auto commit_start = std::chrono::steady_clock::now();
  for (Staged& s : staged) {
    relational::Relation& target = data_.relation(s.rule->target);
    if (s.path == RulePath::kFull || s.replace_with_delta) {
      target = std::move(s.replacement);
      continue;
    }
    if (s.in_place_compose) {
      for (const DeltaOps& op : s.compose_ops) {
        for (const relational::Tuple& t : op.removals) {
          if (target.Erase(t)) ++stats_.tuples_erased;
        }
        for (const relational::Tuple& t : op.additions) {
          if (target.Insert(t)) ++stats_.tuples_inserted;
        }
      }
    }
    for (const relational::Tuple& t : s.removals) {
      if (target.Erase(t)) ++stats_.tuples_erased;
    }
    for (const relational::Tuple& t : s.additions) {
      if (target.Insert(t)) ++stats_.tuples_inserted;
    }
  }

  // Mirror the raw input change into a same-named data symbol unless the
  // program redefined it explicitly.
  int mirror_index = -1;
  switch (request.kind) {
    case relational::RequestKind::kInsert:
    case relational::RequestKind::kDelete: {
      if (targeted.count(request.target) > 0) break;
      int index = data_.vocabulary().RelationIndex(request.target);
      if (index < 0) break;
      relational::Relation& rel = data_.relation(index);
      DYNFO_CHECK(rel.arity() == request.tuple.size());
      if (request.kind == relational::RequestKind::kInsert) {
        if (rel.Insert(request.tuple)) ++stats_.tuples_inserted;
      } else {
        if (rel.Erase(request.tuple)) ++stats_.tuples_erased;
      }
      mirror_index = index;
      break;
    }
    case relational::RequestKind::kSetConstant: {
      int index = data_.vocabulary().ConstantIndex(request.target);
      if (index >= 0) data_.set_constant(index, request.value);
      break;
    }
  }

  // Commit boundary: re-run the backend cost model on everything this
  // request wrote, so backend choice is a deterministic function of the
  // committed state (same options + same history => byte-identical
  // snapshots, whichever paths the requests took).
  if (backend_policy() != relational::BackendPolicy::kHashOnly) {
    if (rules != nullptr) {
      for (const UpdateRule& rule : rules->lets) {
        ReapplyBackend(data_.vocabulary().RelationIndex(rule.target));
      }
    }
    for (const Staged& s : staged) {
      ReapplyBackend(data_.vocabulary().RelationIndex(s.rule->target));
    }
    if (mirror_index >= 0) ReapplyBackend(mirror_index);
  }

  stats_.commit_seconds += seconds_since(commit_start);

  return core::Status();
}

std::string Engine::Snapshot() const {
  std::ostringstream payload;
  payload << "program " << program_->name() << "\n";
  payload << "steps " << stats_.requests << "\n";
  payload << relational::WriteStructure(data_);
  return relational::WrapChecksummed("snapshot", payload.str());
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

std::string Engine::SnapshotDelta(const relational::Structure& base,
                                  uint64_t base_steps) const {
  std::ostringstream payload;
  payload << "program " << program_->name() << "\n";
  payload << "base " << base_steps << "\n";
  payload << "steps " << stats_.requests << "\n";
  payload << relational::WriteStructureDelta(base, data_);
  return relational::WrapChecksummed("snapshot-delta", payload.str());
}

core::Status Engine::RestoreDelta(const std::string& blob) {
  core::Result<std::string> payload =
      relational::UnwrapChecksummed("snapshot-delta", blob);
  if (!payload.ok()) return payload.status();

  std::istringstream in(payload.value());
  std::string keyword, name;
  if (!(in >> keyword >> name) || keyword != "program") {
    return core::Status::Error("snapshot delta missing 'program' line");
  }
  if (name != program_->name()) {
    return core::Status::Error("snapshot delta is for program '" + name +
                               "', engine runs '" + program_->name() + "'");
  }
  std::string token;
  uint64_t base_steps = 0, steps = 0;
  if (!(in >> keyword >> token) || keyword != "base" ||
      !core::ParseU64(token, &base_steps)) {
    return core::Status::Error("snapshot delta missing 'base' line");
  }
  if (!(in >> keyword >> token) || keyword != "steps" ||
      !core::ParseU64(token, &steps)) {
    return core::Status::Error("snapshot delta missing 'steps' line");
  }
  if (base_steps != stats_.requests) {
    return core::Status::Error(
        "snapshot delta is against step " + std::to_string(base_steps) +
        " but the engine is at step " + std::to_string(stats_.requests));
  }
  if (steps < base_steps) {
    return core::Status::Error("snapshot delta runs backwards");
  }
  std::string rest;
  std::getline(in, rest);  // consume the newline after the steps line
  std::ostringstream delta_text;
  delta_text << in.rdbuf();

  // Stage on a CoW copy so a delta that fails mid-application (wrong base,
  // corruption the checksum somehow missed) leaves the engine untouched.
  relational::Structure staged = data_;
  core::Status status =
      relational::ApplyStructureDelta(&staged, delta_text.str());
  if (!status.ok()) {
    return core::Status::Error("snapshot delta: " + status.message());
  }
  data_ = std::move(staged);
  stats_.requests = steps;
  // Plans and the plan cache are compiled against the program, not the
  // data, so they remain valid; the relations' indexes were dropped by the
  // staged-copy assignment and rebuild lazily. Re-register them eagerly so
  // the first post-restore Apply doesn't pay the build inside a rule.
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
