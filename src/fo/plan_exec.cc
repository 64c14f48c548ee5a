/// \file plan_exec.cc
/// Executes compiled plans (fo/plan.h): set-at-a-time operators over
/// NamedRelations, with persistent-index probes in place of scans and
/// per-join hash builds when EvalOptions::use_indexes is on.

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "core/cancel.h"
#include "core/check.h"
#include "fo/eval_naive.h"
#include "fo/plan.h"
#include "relational/dense_set.h"
#include "relational/index.h"
#include "relational/relation.h"

namespace dynfo::fo {

namespace {

Env EnvFromRow(const std::vector<std::string>& columns, const Row& row) {
  Env env;
  for (size_t i = 0; i < columns.size(); ++i) env.Push(columns[i], row[i]);
  return env;
}

void Count(std::atomic<uint64_t>& counter, uint64_t delta = 1) {
  counter.fetch_add(delta, std::memory_order_relaxed);
}

/// Ground key-part values for one execution (constants, parameters, min/max
/// resolve against the context; column-sourced parts are filled per row).
std::vector<relational::Element> ResolveGroundKey(const AtomAccess& access,
                                                  const EvalContext& ctx) {
  std::vector<relational::Element> out(access.key.size(), 0);
  for (size_t i = 0; i < access.key.size(); ++i) {
    if (access.key[i].source_column >= 0) continue;
    std::optional<relational::Element> value = GroundTerm(access.key[i].ground, ctx);
    DYNFO_CHECK(value.has_value());
    out[i] = *value;
  }
  return out;
}

bool DupChecksPass(const AtomAccess& access, const relational::Tuple& t) {
  for (const AtomAccess::DupCheck& check : access.dup_checks) {
    if (t[check.position] != t[check.first_position]) return false;
  }
  return true;
}

/// Standalone atom scan (key parts are all ground): the kAtomScan node and
/// the build side of the index-less join fallback. Probes the ground-key
/// index when enabled.
NamedRelation ExecuteScan(const AtomAccess& access, const EvalContext& ctx,
                          AtomicEvalStats* stats) {
  const relational::Relation& rel = ctx.structure->relation(access.relation_index);
  DYNFO_CHECK(rel.arity() == access.arity)
      << "atom arity mismatch for " << access.relation_name;
  NamedRelation out(access.new_columns);
  const std::vector<relational::Element> ground = ResolveGroundKey(access, ctx);

  auto emit = [&](const relational::Tuple& t) {
    if (!DupChecksPass(access, t)) return;
    Row row;
    row.reserve(access.extend_positions.size());
    for (int p : access.extend_positions) row.push_back(t[p]);
    out.AddRow(std::move(row));
  };

  if (ctx.options.use_indexes && !access.key.empty()) {
    bool built = false;
    const relational::TupleIndex& index = rel.EnsureIndex(access.KeyPositions(), &built);
    if (built) Count(stats->index_builds);
    relational::Tuple key;
    for (relational::Element value : ground) key = key.Append(value);
    Count(stats->index_probes);
    const std::vector<relational::Tuple>* bucket = index.Find(key);
    if (bucket != nullptr) {
      for (const relational::Tuple& t : *bucket) emit(t);
    }
    ctx.Charge(out.size(), out.width());
    return out;
  }

  size_t polls = 0;
  for (const relational::Tuple& t : rel) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    bool match = true;
    for (size_t i = 0; i < access.key.size() && match; ++i) {
      match = t[access.key[i].position] == ground[i];
    }
    if (match) emit(t);
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteIndexJoin(const NamedRelation& acc, const ConjStep& step,
                               const EvalContext& ctx, AtomicEvalStats* stats) {
  Count(stats->joins);
  if (!ctx.options.use_indexes) {
    // Index-less shape: hash-join against a freshly scanned build side.
    return acc.Join(ExecuteScan(step.scan, ctx, stats), ctx.governor);
  }

  const AtomAccess& access = step.probe;
  const relational::Relation& rel = ctx.structure->relation(access.relation_index);
  DYNFO_CHECK(rel.arity() == access.arity)
      << "atom arity mismatch for " << access.relation_name;
  Count(stats->indexed_joins);
  bool built = false;
  const relational::TupleIndex& index = rel.EnsureIndex(access.KeyPositions(), &built);
  if (built) Count(stats->index_builds);
  const std::vector<relational::Element> ground = ResolveGroundKey(access, ctx);

  std::vector<std::string> columns = acc.columns();
  for (const std::string& name : access.new_columns) columns.push_back(name);
  NamedRelation out(columns);
  Count(stats->index_probes, acc.size());

  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    relational::Tuple key;
    for (size_t i = 0; i < access.key.size(); ++i) {
      const int column = access.key[i].source_column;
      key = key.Append(column >= 0 ? row[column] : ground[i]);
    }
    const std::vector<relational::Tuple>* bucket = index.Find(key);
    if (bucket == nullptr) continue;
    for (const relational::Tuple& t : *bucket) {
      if (!DupChecksPass(access, t)) continue;
      Row extended = row;
      for (int p : access.extend_positions) extended.push_back(t[p]);
      out.AddRow(std::move(extended));
    }
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteFilterRows(const NamedRelation& acc, const ConjStep& step,
                                const EvalContext& ctx, AtomicEvalStats* stats) {
  NamedRelation out(acc.columns());
  Count(stats->filter_row_evals, acc.size());

  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    Env env = EnvFromRow(acc.columns(), row);
    if (NaiveEvaluator::Holds(*step.formula, ctx, &env)) out.AddRow(row);
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteEqExtend(const NamedRelation& acc, const ConjStep& step,
                              const EvalContext& ctx, AtomicEvalStats* stats) {
  Count(stats->equality_extensions);
  std::vector<std::string> columns = acc.columns();
  columns.push_back(step.var);
  NamedRelation out(columns);
  relational::Element ground = 0;
  if (!step.eq_from_column) {
    std::optional<relational::Element> value = GroundTerm(step.eq_term, ctx);
    DYNFO_CHECK(value.has_value());
    ground = *value;
  }
  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    Row extended = row;
    extended.push_back(step.eq_from_column ? row[step.eq_source_column] : ground);
    out.AddRow(std::move(extended));
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteFilterExtend(const NamedRelation& acc, const ConjStep& step,
                                  const EvalContext& ctx, AtomicEvalStats* stats) {
  Count(stats->filtered_extensions);
  const size_t n = ctx.universe_size();
  std::vector<std::string> columns = acc.columns();
  columns.push_back(step.var);
  NamedRelation out(columns);
  Count(stats->filter_row_evals, acc.size() * n);

  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    Env env = EnvFromRow(acc.columns(), row);
    env.Push(step.var, 0);
    for (size_t v = 0; v < n; ++v) {
      env.Set(static_cast<relational::Element>(v));
      if (NaiveEvaluator::Holds(*step.formula, ctx, &env)) {
        Row extended = row;
        extended.push_back(static_cast<relational::Element>(v));
        out.AddRow(std::move(extended));
      }
    }
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

/// Extends each row by the union of per-branch candidate values: index-probe
/// buckets for atom branches, single pinned values for equality branches.
/// Output-proportional — never visits the universe — unlike the
/// kFilterExtend shape it replaces for disjunctive conjuncts. Duplicate
/// values across branches collapse in the output RowSet.
NamedRelation ExecuteUnionExtend(const NamedRelation& acc, const ConjStep& step,
                                 const EvalContext& ctx, AtomicEvalStats* stats) {
  if (!ctx.options.use_indexes) {
    // Without persistent indexes the per-branch probes would degenerate to
    // per-row relation scans; extend-and-filter is simpler and identically
    // correct.
    return ExecuteFilterExtend(acc, step, ctx, stats);
  }
  Count(stats->filtered_extensions);
  Count(stats->indexed_joins);

  struct BranchState {
    const ExtendBranch* branch;
    const relational::TupleIndex* index = nullptr;  // atom branches
    std::vector<relational::Element> ground;        // atom branches
    relational::Element eq_value = 0;               // ground eq branches
  };
  std::vector<BranchState> states;
  states.reserve(step.union_branches.size());
  for (const ExtendBranch& branch : step.union_branches) {
    BranchState state;
    state.branch = &branch;
    if (branch.is_atom) {
      const relational::Relation& rel =
          ctx.structure->relation(branch.atom.relation_index);
      DYNFO_CHECK(rel.arity() == branch.atom.arity)
          << "atom arity mismatch for " << branch.atom.relation_name;
      bool built = false;
      state.index = &rel.EnsureIndex(branch.atom.KeyPositions(), &built);
      if (built) Count(stats->index_builds);
      state.ground = ResolveGroundKey(branch.atom, ctx);
    } else if (!branch.eq_from_column) {
      std::optional<relational::Element> value = GroundTerm(branch.eq_term, ctx);
      DYNFO_CHECK(value.has_value());
      state.eq_value = *value;
    }
    states.push_back(std::move(state));
  }

  std::vector<std::string> columns = acc.columns();
  columns.push_back(step.var);
  NamedRelation out(columns);
  Count(stats->index_probes, acc.size() * states.size());

  std::vector<relational::Element> values;
  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    values.clear();
    for (const BranchState& state : states) {
      const ExtendBranch& branch = *state.branch;
      if (!branch.is_atom) {
        values.push_back(branch.eq_from_column ? row[branch.eq_source_column]
                                               : state.eq_value);
        continue;
      }
      const AtomAccess& access = branch.atom;
      relational::Tuple key;
      for (size_t i = 0; i < access.key.size(); ++i) {
        const int column = access.key[i].source_column;
        key = key.Append(column >= 0 ? row[column] : state.ground[i]);
      }
      const std::vector<relational::Tuple>* bucket = state.index->Find(key);
      if (bucket == nullptr) continue;
      for (const relational::Tuple& t : *bucket) {
        if (!DupChecksPass(access, t)) continue;
        values.push_back(t[access.extend_positions[0]]);
      }
    }
    // Values from different branches may coincide.
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (relational::Element value : values) {
      Row extended = row;
      extended.push_back(value);
      out.AddRow(std::move(extended));
    }
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteConjunction(const Plan& plan, const EvalContext& ctx,
                                 AtomicEvalStats* stats) {
  NamedRelation acc = NamedRelation::Unit();
  for (const ConjStep& step : plan.steps) {
    // One governor poll per pipeline step: a tripped governor aborts the
    // whole conjunction with a partial (discarded) result.
    if (ctx.ShouldStop()) return NamedRelation(plan.columns);
    switch (step.kind) {
      case ConjStepKind::kFilterRows:
        acc = ExecuteFilterRows(acc, step, ctx, stats);
        break;
      case ConjStepKind::kSemiJoin:
        Count(stats->semi_joins);
        acc = acc.SemiJoin(ExecutePlan(*step.child, ctx, stats), step.anti,
                           ctx.governor);
        break;
      case ConjStepKind::kEqExtend:
        if (acc.empty()) return NamedRelation(plan.columns);
        acc = ExecuteEqExtend(acc, step, ctx, stats);
        break;
      case ConjStepKind::kIndexJoin:
        if (acc.empty()) return NamedRelation(plan.columns);
        acc = ExecuteIndexJoin(acc, step, ctx, stats);
        break;
      case ConjStepKind::kUnionExtend:
        if (acc.empty()) return NamedRelation(plan.columns);
        acc = ExecuteUnionExtend(acc, step, ctx, stats);
        break;
      case ConjStepKind::kFilterExtend:
        if (acc.empty()) return NamedRelation(plan.columns);
        acc = ExecuteFilterExtend(acc, step, ctx, stats);
        break;
      case ConjStepKind::kSatJoin:
        if (acc.empty()) return NamedRelation(plan.columns);
        Count(stats->joins);
        acc = acc.Join(ExecutePlan(*step.child, ctx, stats), ctx.governor);
        break;
    }
    // The row-level operators charge internally; joins/semi-joins
    // materialize through NamedRelation and are charged here.
    if (step.kind == ConjStepKind::kSemiJoin || step.kind == ConjStepKind::kSatJoin) {
      ctx.Charge(acc.size(), acc.width());
    }
  }
  if (acc.empty()) return NamedRelation(plan.columns);
  DYNFO_CHECK(acc.columns().size() == plan.columns.size());
  return acc;
}

NamedRelation ExecuteNumeric(const Plan& plan, const EvalContext& ctx) {
  const size_t n = ctx.universe_size();
  const Term& lhs = plan.left;
  const Term& rhs = plan.right;
  std::optional<relational::Element> lg = GroundTerm(lhs, ctx);
  std::optional<relational::Element> rg = GroundTerm(rhs, ctx);

  auto holds = [&](relational::Element a, relational::Element b) {
    switch (plan.numeric_kind) {
      case FormulaKind::kEq:
        return a == b;
      case FormulaKind::kLe:
        return a <= b;
      case FormulaKind::kBit:
        return b < 32 && ((a >> b) & 1u) != 0;
      default:
        DYNFO_UNREACHABLE();
    }
  };

  if (lg && rg) {
    return holds(*lg, *rg) ? NamedRelation::Unit() : NamedRelation({});
  }
  if (lg || rg) {
    NamedRelation out(plan.columns);
    for (size_t v = 0; v < n; ++v) {
      relational::Element e = static_cast<relational::Element>(v);
      bool ok = lg ? holds(*lg, e) : holds(e, *rg);
      if (ok) out.AddRow({e});
    }
    return out;
  }
  if (lhs.name() == rhs.name()) {
    NamedRelation out(plan.columns);
    for (size_t v = 0; v < n; ++v) {
      relational::Element e = static_cast<relational::Element>(v);
      if (holds(e, e)) out.AddRow({e});
    }
    return out;
  }
  if (plan.numeric_kind == FormulaKind::kEq) {
    NamedRelation out(plan.columns);
    for (size_t v = 0; v < n; ++v) {
      relational::Element e = static_cast<relational::Element>(v);
      out.AddRow({e, e});
    }
    return out;
  }
  NamedRelation out(plan.columns);
  size_t polls = 0;
  for (size_t a = 0; a < n; ++a) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    for (size_t b = 0; b < n; ++b) {
      if (holds(static_cast<relational::Element>(a),
                static_cast<relational::Element>(b))) {
        out.AddRow({static_cast<relational::Element>(a),
                    static_cast<relational::Element>(b)});
      }
    }
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteUnion(const Plan& plan, const EvalContext& ctx,
                           AtomicEvalStats* stats) {
  NamedRelation out(plan.columns);
  const size_t n = ctx.universe_size();
  size_t polls = 0;
  for (size_t i = 0; i < plan.children.size(); ++i) {
    if (ctx.ShouldStop()) break;
    NamedRelation sat = ExecutePlan(*plan.children[i], ctx, stats);
    const std::vector<int>& sources = plan.union_sources[i];
    const int pads = plan.union_pad_counts[i];
    if (pads > 0) Count(stats->pads);
    if (pads == 0) {
      for (const Row& row : sat.rows()) {
        if (core::StridedStop(ctx.governor, &polls)) break;
        Row mapped;
        mapped.reserve(sources.size());
        for (int s : sources) mapped.push_back(row[s]);
        out.AddRow(std::move(mapped));
      }
      ctx.Charge(out.size(), out.width());
      continue;
    }
    if (n == 0) continue;  // padding over an empty universe yields nothing
    std::vector<relational::Element> pad(pads, 0);
    for (const Row& row : sat.rows()) {
      if (core::StridedStop(ctx.governor, &polls)) break;
      std::fill(pad.begin(), pad.end(), 0);
      while (true) {
        // The pad odometer emits n^pads rows per input row, so the poll
        // must live inside the odometer, not just on the outer row loop.
        if (core::StridedStop(ctx.governor, &polls)) break;
        Row mapped;
        mapped.reserve(sources.size());
        for (int s : sources) {
          mapped.push_back(s >= 0 ? row[s] : pad[static_cast<size_t>(-s - 1)]);
        }
        out.AddRow(std::move(mapped));
        int d = 0;
        while (d < pads) {
          if (static_cast<size_t>(++pad[d]) < n) break;
          pad[d] = 0;
          ++d;
        }
        if (d == pads) break;
      }
    }
    ctx.Charge(out.size(), out.width());
  }
  return out;
}

NamedRelation ExecuteProject(const Plan& plan, const EvalContext& ctx,
                             AtomicEvalStats* stats) {
  NamedRelation sat = ExecutePlan(*plan.children[0], ctx, stats);
  NamedRelation out(plan.columns);
  size_t polls = 0;
  for (const Row& row : sat.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    Row projected;
    projected.reserve(plan.project_positions.size());
    for (int p : plan.project_positions) projected.push_back(row[p]);
    out.AddRow(std::move(projected));
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation ExecuteForallGroup(const Plan& plan, const EvalContext& ctx,
                                 AtomicEvalStats* stats) {
  NamedRelation sat = ExecutePlan(*plan.children[0], ctx, stats);
  const size_t n = ctx.universe_size();
  uint64_t required = 1;
  for (int i = 0; i < plan.group_arity; ++i) {
    DYNFO_CHECK(n > 0 && required <= std::numeric_limits<uint64_t>::max() / n)
        << "forall group size overflow";
    required *= n;
  }
  std::unordered_map<Row, uint64_t, RowHash> counts;
  size_t polls = 0;
  for (const Row& row : sat.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    Row key;
    key.reserve(plan.keep_positions.size());
    for (int p : plan.keep_positions) key.push_back(row[p]);
    ++counts[key];
  }
  ctx.Charge(counts.size(), plan.keep_positions.size());
  NamedRelation out(plan.columns);
  for (const auto& [key, count] : counts) {
    if (count == required) out.AddRow(key);
  }
  return out;
}

}  // namespace

NamedRelation ExecutePlan(const Plan& plan, const EvalContext& ctx,
                          AtomicEvalStats* stats) {
  // Entry poll: a tripped governor prunes whole subtrees before they start.
  if (ctx.ShouldStop()) return NamedRelation(plan.columns);
  switch (plan.kind) {
    case PlanKind::kUnit:
      return NamedRelation::Unit();
    case PlanKind::kEmpty:
      return NamedRelation(plan.columns);
    case PlanKind::kAtomScan:
      return ExecuteScan(plan.atom, ctx, stats);
    case PlanKind::kNumeric:
      return ExecuteNumeric(plan, ctx);
    case PlanKind::kComplement: {
      NamedRelation sat = ExecutePlan(*plan.children[0], ctx, stats);
      Count(stats->complements);
      return sat.ComplementWithin(ctx.universe_size(), ctx.governor);
    }
    case PlanKind::kConjunction:
      return ExecuteConjunction(plan, ctx, stats);
    case PlanKind::kUnion:
      return ExecuteUnion(plan, ctx, stats);
    case PlanKind::kProject:
      return ExecuteProject(plan, ctx, stats);
    case PlanKind::kForallGroup:
      return ExecuteForallGroup(plan, ctx, stats);
  }
  DYNFO_UNREACHABLE();
}

std::vector<relational::Tuple> ExecuteDeltaRemovals(const DeltaProgram& program,
                                                    const EvalContext& ctx,
                                                    AtomicEvalStats* stats) {
  DYNFO_CHECK(program.bounded) << "removal program is not delta-safe";
  std::vector<relational::Tuple> out;
  if (program.remove_plan == nullptr) return out;  // keep ≡ true
  const relational::Relation& base =
      ctx.structure->relation(program.base_relation_index);
  DYNFO_CHECK(base.arity() == program.base_arity);
  NamedRelation rows = ExecutePlan(*program.remove_plan, ctx, stats);
  if (rows.empty()) return out;

  if (program.covers_all_positions) {
    // The plan binds every position: rows map bijectively to candidate
    // tuples, so a membership check suffices and no duplicates arise.
    size_t polls = 0;
    for (const Row& row : rows.rows()) {
      if (core::StridedStop(ctx.governor, &polls)) break;
      relational::Tuple t;
      for (int c : program.full_tuple_sources) t = t.Append(row[c]);
      if (base.Contains(t)) out.push_back(t);
    }
    ctx.Charge(out.size(), static_cast<size_t>(base.arity()));
    return out;
  }

  if (program.key_positions.empty()) {
    // A sentence-shaped condition held: the rule removes every stored tuple.
    out.assign(base.begin(), base.end());
    ctx.Charge(out.size(), static_cast<size_t>(base.arity()));
    return out;
  }

  // Partial cover: expand each (distinct) key row through the base's
  // persistent index. Distinct rows project to distinct keys — every plan
  // column is a key column — so buckets never overlap.
  bool built = false;
  const relational::TupleIndex& index =
      base.EnsureIndex(program.key_positions, &built);
  if (built) Count(stats->index_builds);
  size_t polls = 0;
  for (const Row& row : rows.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    relational::Tuple key;
    for (int c : program.key_source_columns) key = key.Append(row[c]);
    Count(stats->index_probes);
    const std::vector<relational::Tuple>* bucket = index.Find(key);
    if (bucket == nullptr) continue;
    out.insert(out.end(), bucket->begin(), bucket->end());
  }
  ctx.Charge(out.size(), static_cast<size_t>(base.arity()));
  return out;
}

// ---------------------------------------------------------------------------
// Dense kernel execution (see plan.h). Values flow through DenseResult: a
// rank-0 bit, a rank-1 bit vector, or a rank-2 row-major plane, with tail
// bits zero at all times (the masks below restore the invariant after every
// complement/fill). Atoms and numerics are specialized to word-wide copies,
// broadcasts, and prefix/suffix masks where the slot pattern allows, and
// fall back to per-bit probes otherwise — so execution is total over any
// backend mix, merely fastest when the inputs expose DenseBaseViews.

namespace {

class DenseEvaluator {
 public:
  DenseEvaluator(const DenseExecContext& ctx, size_t n)
      : ctx_(ctx),
        n_(n),
        wpr_((n + 63) / 64),
        tail_(n % 64 == 0 ? ~uint64_t{0} : ((uint64_t{1} << (n % 64)) - 1)) {}

  uint64_t words_touched() const { return words_touched_; }

  /// Evaluates `op` into `out`. False = governor stop; `out` unspecified.
  bool Eval(const DenseOp& op, DenseResult* out) {
    if (op.rank == 0) {
      // Rank-0 subtrees are boolean circuits over ground probes (no slots in
      // scope means no vector operands anywhere above the next quantifier):
      // evaluate them as plain bools with short-circuiting instead of
      // threading one-bit DenseResults through the vector machinery. This is
      // the whole kernel for PARITY-style programs.
      bool value;
      if (!EvalScalar(op, &value)) return false;
      Fill(out, 0, value);
      return true;
    }
    return EvalVector(op, out);
  }

 private:
  /// Scalar evaluation of a rank-0 non-quantifier subtree. Quantifier nodes
  /// (whose bodies climb back to rank >= 1) drop into the vector path.
  /// False = governor stop; `*value` unspecified.
  bool EvalScalar(const DenseOp& op, bool* value) {
    if (Poll()) return false;
    switch (op.kind) {
      case DenseOpKind::kConst:
        *value = op.const_value;
        return true;
      case DenseOpKind::kAtom: {
        // Rank 0 means every argument is ground. Probe the bit plane
        // directly when the base view is available, else fall back to the
        // overlay-aware Contains.
        const relational::Relation& rel =
            ctx_.structure->relation(op.relation_index);
        if (const relational::DenseSet* view = rel.DenseBaseView()) {
          if (op.relation_arity == 0) {
            *value = (view->words()[0] & uint64_t{1}) != 0;
            return true;
          }
          const size_t g0 = static_cast<size_t>(Ground(op.args[0]));
          DYNFO_CHECK(g0 < n_) << "element outside dense universe";
          if (op.relation_arity == 1) {
            *value = ((view->words()[g0 / 64] >> (g0 % 64)) & uint64_t{1}) != 0;
            return true;
          }
          const size_t g1 = static_cast<size_t>(Ground(op.args[1]));
          DYNFO_CHECK(g1 < n_) << "element outside dense universe";
          *value = ((view->words()[g0 * wpr_ + g1 / 64] >> (g1 % 64)) &
                    uint64_t{1}) != 0;
          return true;
        }
        relational::Tuple t;
        for (const DenseTerm& a : op.args) t = t.Append(Ground(a));
        *value = rel.Contains(t);
        return true;
      }
      case DenseOpKind::kNumeric: {
        const relational::Element lv = Ground(op.left);
        const relational::Element rv = Ground(op.right);
        switch (op.numeric_kind) {
          case FormulaKind::kEq:
            *value = lv == rv;
            break;
          case FormulaKind::kLe:
            *value = lv <= rv;
            break;
          default:
            *value = rv < 32 && ((lv >> rv) & 1u) != 0;
            break;
        }
        return true;
      }
      case DenseOpKind::kNot: {
        if (!EvalScalar(*op.children[0], value)) return false;
        *value = !*value;
        return true;
      }
      case DenseOpKind::kAnd:
      case DenseOpKind::kOr: {
        const bool conj = op.kind == DenseOpKind::kAnd;
        *value = conj;
        for (const DenseOpPtr& child : op.children) {
          bool v;
          if (!EvalScalar(*child, &v)) return false;
          if (v != conj) {  // short-circuit, as the vector path does
            *value = !conj;
            return true;
          }
        }
        return true;
      }
      case DenseOpKind::kExists:
      case DenseOpKind::kForall: {
        DenseResult reduced;
        if (!EvalVector(op, &reduced)) return false;
        *value = reduced.bit;
        return true;
      }
    }
    DYNFO_UNREACHABLE();
  }

  /// The vector path: values flow as packed planes through DenseResult.
  bool EvalVector(const DenseOp& op, DenseResult* out) {
    if (Poll()) return false;
    switch (op.kind) {
      case DenseOpKind::kConst:
        Fill(out, op.rank, op.const_value);
        return true;
      case DenseOpKind::kAtom:
        return EvalAtom(op, out);
      case DenseOpKind::kNumeric:
        return EvalNumeric(op, out);
      case DenseOpKind::kNot: {
        if (!Eval(*op.children[0], out)) return false;
        Complement(out);
        return true;
      }
      case DenseOpKind::kAnd:
      case DenseOpKind::kOr: {
        const bool conj = op.kind == DenseOpKind::kAnd;
        if (!Eval(*op.children[0], out)) return false;
        DenseResult scratch;
        for (size_t i = 1; i < op.children.size(); ++i) {
          if (out->rank == 0 && out->bit != conj) return true;  // short-circuit
          if (!Eval(*op.children[i], &scratch)) return false;
          Combine(out, scratch, conj);
        }
        return true;
      }
      case DenseOpKind::kExists:
      case DenseOpKind::kForall: {
        DenseResult body;
        if (!Eval(*op.children[0], &body)) return false;
        const bool exists = op.kind == DenseOpKind::kExists;
        for (int q = 0; q < op.quantified; ++q) ReduceLastSlot(&body, exists);
        *out = std::move(body);
        return true;
      }
    }
    DYNFO_UNREACHABLE();
  }

 private:
  bool Poll() {
    if (ctx_.governor == nullptr) return false;
    return (poll_counter_++ % core::kGovernorStride) == 0 &&
           core::GovernorStop(ctx_.governor);
  }

  relational::Element Ground(const DenseTerm& t) const {
    switch (t.kind) {
      case DenseTerm::Kind::kParam:
        DYNFO_CHECK(t.index < ctx_.num_params)
            << "request parameter $" << t.index << " not bound";
        return ctx_.params[t.index];
      case DenseTerm::Kind::kConstant:
        return ctx_.structure->constant(t.index);
      case DenseTerm::Kind::kLiteral:
        return t.value;
      case DenseTerm::Kind::kMax:
        return static_cast<relational::Element>(n_ - 1);
      case DenseTerm::Kind::kSlot:
        break;
    }
    DYNFO_UNREACHABLE();
  }

  size_t WordsFor(int rank) const {
    return rank == 2 ? n_ * wpr_ : (rank == 1 ? wpr_ : 0);
  }

  /// Zeroes tail bits of every row, restoring the representation invariant.
  void MaskTails(std::vector<uint64_t>* words, int rank) const {
    if (tail_ == ~uint64_t{0}) return;
    if (rank == 1) {
      (*words)[wpr_ - 1] &= tail_;
    } else if (rank == 2) {
      for (size_t r = 0; r < n_; ++r) (*words)[r * wpr_ + wpr_ - 1] &= tail_;
    }
  }

  void Fill(DenseResult* out, int rank, bool value) {
    out->rank = rank;
    out->bit = value;
    if (rank == 0) {
      out->words.clear();
      return;
    }
    out->words.assign(WordsFor(rank), value ? ~uint64_t{0} : uint64_t{0});
    if (value) MaskTails(&out->words, rank);
    words_touched_ += WordsFor(rank);
  }

  void Complement(DenseResult* v) {
    if (v->rank == 0) {
      v->bit = !v->bit;
      return;
    }
    for (uint64_t& w : v->words) w = ~w;
    words_touched_ += v->words.size();
    MaskTails(&v->words, v->rank);
  }

  void Combine(DenseResult* acc, const DenseResult& operand, bool conj) {
    DYNFO_CHECK(acc->rank == operand.rank);
    if (acc->rank == 0) {
      acc->bit = conj ? (acc->bit && operand.bit) : (acc->bit || operand.bit);
      return;
    }
    uint64_t* a = acc->words.data();
    const uint64_t* b = operand.words.data();
    const size_t total = acc->words.size();
    if (conj) {
      for (size_t i = 0; i < total; ++i) a[i] &= b[i];
    } else {
      for (size_t i = 0; i < total; ++i) a[i] |= b[i];
    }
    words_touched_ += total;
  }

  /// Turns a value over one slot (a bit for rank 0 inputs, else `vec`) into
  /// a value at `rank`, broadcasting over the slots it does not mention.
  void ExpandVector(std::vector<uint64_t>&& vec, int slot, int rank,
                    DenseResult* out) {
    if (rank == 1) {
      DYNFO_CHECK(slot == 0);
      out->rank = 1;
      out->words = std::move(vec);
      return;
    }
    DYNFO_CHECK(rank == 2 && slot >= 0 && slot <= 1);
    out->rank = 2;
    out->words.assign(n_ * wpr_, 0);
    if (slot == 1) {
      // Value depends on the column only: every row is a copy of vec.
      for (size_t r = 0; r < n_; ++r) {
        std::copy(vec.begin(), vec.end(), out->words.begin() + r * wpr_);
      }
    } else {
      // Value depends on the row only: full or empty rows.
      for (size_t r = 0; r < n_; ++r) {
        if (((vec[r / 64] >> (r % 64)) & 1) != 0) {
          uint64_t* row = out->words.data() + r * wpr_;
          std::fill(row, row + wpr_, ~uint64_t{0});
          row[wpr_ - 1] &= tail_;
        }
      }
    }
    words_touched_ += n_ * wpr_;
  }

  bool EvalAtom(const DenseOp& op, DenseResult* out) {
    const relational::Relation& rel =
        ctx_.structure->relation(op.relation_index);
    int slot_count = 0;
    for (const DenseTerm& a : op.args) {
      if (a.kind == DenseTerm::Kind::kSlot) ++slot_count;
    }
    if (slot_count == 0) {
      // Ground probe. The apply hot path lands here with a dense base and no
      // overlay: answer straight from the bit plane, skipping tuple assembly
      // and the overlay-aware Contains.
      if (const relational::DenseSet* view = rel.DenseBaseView()) {
        bool bit;
        if (op.relation_arity == 0) {
          bit = (view->words()[0] & uint64_t{1}) != 0;
        } else {
          const size_t g0 = static_cast<size_t>(Ground(op.args[0]));
          DYNFO_CHECK(g0 < n_) << "element outside dense universe";
          if (op.relation_arity == 1) {
            bit = ((view->words()[g0 / 64] >> (g0 % 64)) & uint64_t{1}) != 0;
          } else {
            const size_t g1 = static_cast<size_t>(Ground(op.args[1]));
            DYNFO_CHECK(g1 < n_) << "element outside dense universe";
            bit = ((view->words()[g0 * wpr_ + g1 / 64] >> (g1 % 64)) &
                   uint64_t{1}) != 0;
          }
        }
        Fill(out, op.rank, bit);
        return true;
      }
      relational::Tuple t;
      for (const DenseTerm& a : op.args) t = t.Append(Ground(a));
      Fill(out, op.rank, rel.Contains(t));
      return true;
    }
    const relational::DenseSet* view = rel.DenseBaseView();
    if (view == nullptr) return EvalAtomGeneric(op, rel, out);

    if (op.relation_arity == 1) {
      const DenseTerm& a = op.args[0];
      std::vector<uint64_t> vec(view->words(), view->words() + wpr_);
      words_touched_ += wpr_;
      ExpandVector(std::move(vec), a.index, op.rank, out);
      return true;
    }
    DYNFO_CHECK(op.relation_arity == 2);
    const DenseTerm& a0 = op.args[0];
    const DenseTerm& a1 = op.args[1];
    const bool s0 = a0.kind == DenseTerm::Kind::kSlot;
    const bool s1 = a1.kind == DenseTerm::Kind::kSlot;
    if (s0 && s1) {
      if (a0.index == a1.index) {
        // R(x, x): the diagonal, as a vector over that slot.
        std::vector<uint64_t> vec(wpr_, 0);
        const uint64_t* w = view->words();
        for (size_t i = 0; i < n_; ++i) {
          if (((w[i * wpr_ + i / 64] >> (i % 64)) & 1) != 0) {
            vec[i / 64] |= uint64_t{1} << (i % 64);
          }
        }
        words_touched_ += n_;
        ExpandVector(std::move(vec), a0.index, op.rank, out);
        return true;
      }
      DYNFO_CHECK(op.rank == 2);
      out->rank = 2;
      if (a0.index == 0) {
        // R(row, col): the plane itself.
        out->words.assign(view->words(), view->words() + n_ * wpr_);
        words_touched_ += n_ * wpr_;
      } else {
        // R(col, row): transpose via ctz scan of set bits.
        out->words.assign(n_ * wpr_, 0);
        const uint64_t* src = view->words();
        for (size_t r = 0; r < n_; ++r) {
          if (Poll()) return false;
          for (size_t wi = 0; wi < wpr_; ++wi) {
            uint64_t bits = src[r * wpr_ + wi];
            while (bits != 0) {
              const size_t c =
                  wi * 64 + static_cast<size_t>(std::countr_zero(bits));
              out->words[c * wpr_ + r / 64] |= uint64_t{1} << (r % 64);
              bits &= bits - 1;
            }
          }
        }
        words_touched_ += n_ * wpr_;
      }
      return true;
    }
    // One slot, one ground argument: a vector over the slot.
    const int slot = s0 ? a0.index : a1.index;
    const relational::Element g = Ground(s0 ? a1 : a0);
    std::vector<uint64_t> vec(wpr_, 0);
    if (static_cast<size_t>(g) < n_) {
      const uint64_t* w = view->words();
      if (s1) {
        // R(g, x): copy row g.
        std::copy(w + static_cast<size_t>(g) * wpr_,
                  w + (static_cast<size_t>(g) + 1) * wpr_, vec.begin());
        words_touched_ += wpr_;
      } else {
        // R(x, g): gather column g.
        const size_t word_off = static_cast<size_t>(g) / 64;
        const unsigned bit_off = static_cast<unsigned>(g % 64);
        for (size_t x = 0; x < n_; ++x) {
          if (((w[x * wpr_ + word_off] >> bit_off) & 1) != 0) {
            vec[x / 64] |= uint64_t{1} << (x % 64);
          }
        }
        words_touched_ += n_;
      }
    }
    ExpandVector(std::move(vec), slot, op.rank, out);
    return true;
  }

  /// Per-bit fallback when the relation has no dense view (hash backend):
  /// correct for every pattern, paying one Contains per cell.
  bool EvalAtomGeneric(const DenseOp& op, const relational::Relation& rel,
                       DenseResult* out) {
    relational::Element ground[relational::Tuple::kMaxArity] = {0, 0, 0, 0};
    for (size_t i = 0; i < op.args.size(); ++i) {
      if (op.args[i].kind != DenseTerm::Kind::kSlot) {
        ground[i] = Ground(op.args[i]);
      }
    }
    auto contains_at = [&](relational::Element row, relational::Element col) {
      relational::Tuple t;
      for (size_t i = 0; i < op.args.size(); ++i) {
        if (op.args[i].kind == DenseTerm::Kind::kSlot) {
          t = t.Append(op.args[i].index == 0 ? row : col);
        } else {
          t = t.Append(ground[i]);
        }
      }
      return rel.Contains(t);
    };
    return FillPredicate(op.rank, SlotMask(op.args), contains_at, out);
  }

  bool EvalNumeric(const DenseOp& op, DenseResult* out) {
    const DenseTerm& l = op.left;
    const DenseTerm& r = op.right;
    const bool ls = l.kind == DenseTerm::Kind::kSlot;
    const bool rs = r.kind == DenseTerm::Kind::kSlot;
    if (!ls && !rs) {
      const relational::Element lv = Ground(l);
      const relational::Element rv = Ground(r);
      bool holds = false;
      switch (op.numeric_kind) {
        case FormulaKind::kEq:
          holds = lv == rv;
          break;
        case FormulaKind::kLe:
          holds = lv <= rv;
          break;
        default:
          holds = rv < 32 && ((lv >> rv) & 1u) != 0;
          break;
      }
      Fill(out, op.rank, holds);
      return true;
    }
    if (op.numeric_kind == FormulaKind::kEq) {
      if (ls && rs) {
        if (l.index == r.index) {
          Fill(out, op.rank, true);
          return true;
        }
        // x = y over a rank-2 schema: the identity plane.
        DYNFO_CHECK(op.rank == 2);
        out->rank = 2;
        out->words.assign(n_ * wpr_, 0);
        for (size_t i = 0; i < n_; ++i) {
          out->words[i * wpr_ + i / 64] |= uint64_t{1} << (i % 64);
        }
        words_touched_ += n_;
        return true;
      }
      const int slot = ls ? l.index : r.index;
      const relational::Element g = Ground(ls ? r : l);
      std::vector<uint64_t> vec(wpr_, 0);
      if (static_cast<size_t>(g) < n_) {
        vec[static_cast<size_t>(g) / 64] |= uint64_t{1} << (g % 64);
      }
      ExpandVector(std::move(vec), slot, op.rank, out);
      return true;
    }
    if (op.numeric_kind == FormulaKind::kLe) {
      if (ls && rs) {
        if (l.index == r.index) {
          Fill(out, op.rank, true);
          return true;
        }
        DYNFO_CHECK(op.rank == 2);
        out->rank = 2;
        out->words.assign(n_ * wpr_, 0);
        for (size_t row = 0; row < n_; ++row) {
          uint64_t* w = out->words.data() + row * wpr_;
          if (l.index == 0) {
            // row <= col: suffix mask from `row`.
            SuffixMask(w, row);
          } else {
            // col <= row: prefix mask through `row`.
            PrefixMask(w, row);
          }
        }
        words_touched_ += n_ * wpr_;
        return true;
      }
      const int slot = ls ? l.index : r.index;
      const uint64_t g = Ground(ls ? r : l);
      std::vector<uint64_t> vec(wpr_, 0);
      if (ls) {
        // x <= g: prefix through min(g, n-1).
        if (g >= n_ - 1) {
          PrefixMask(vec.data(), n_ - 1);
        } else {
          PrefixMask(vec.data(), static_cast<size_t>(g));
        }
      } else if (g < n_) {
        // g <= x: suffix from g.
        SuffixMask(vec.data(), static_cast<size_t>(g));
      }
      ExpandVector(std::move(vec), slot, op.rank, out);
      return true;
    }
    // BIT with slot operands: per-bit evaluation.
    auto holds_at = [&](relational::Element row, relational::Element col) {
      const relational::Element lv =
          ls ? (l.index == 0 ? row : col) : Ground(l);
      const relational::Element rv =
          rs ? (r.index == 0 ? row : col) : Ground(r);
      return rv < 32 && ((lv >> rv) & 1u) != 0;
    };
    int mask = 0;
    if (ls) mask |= 1 << l.index;
    if (rs) mask |= 1 << r.index;
    return FillPredicate(op.rank, mask, holds_at, out);
  }

  /// Which slots the lowered args mention, as a bitmask over {0, 1}.
  static int SlotMask(const std::vector<DenseTerm>& args) {
    int mask = 0;
    for (const DenseTerm& a : args) {
      if (a.kind == DenseTerm::Kind::kSlot) mask |= 1 << a.index;
    }
    return mask;
  }

  /// Evaluates pred(row, col) per referenced cell and broadcasts the result
  /// to `rank` (cells the predicate does not reference are broadcast over).
  template <typename Pred>
  bool FillPredicate(int rank, int slot_mask, const Pred& pred,
                     DenseResult* out) {
    if (slot_mask == 3) {
      DYNFO_CHECK(rank == 2);
      out->rank = 2;
      out->words.assign(n_ * wpr_, 0);
      for (size_t row = 0; row < n_; ++row) {
        if (Poll()) return false;
        uint64_t* w = out->words.data() + row * wpr_;
        for (size_t col = 0; col < n_; ++col) {
          if (pred(static_cast<relational::Element>(row),
                   static_cast<relational::Element>(col))) {
            w[col / 64] |= uint64_t{1} << (col % 64);
          }
        }
      }
      words_touched_ += n_ * wpr_;
      return true;
    }
    const int slot = slot_mask == 2 ? 1 : 0;
    std::vector<uint64_t> vec(wpr_, 0);
    for (size_t i = 0; i < n_; ++i) {
      if ((i % 4096) == 0 && Poll()) return false;
      const relational::Element e = static_cast<relational::Element>(i);
      const bool holds = slot == 0 ? pred(e, 0) : pred(0, e);
      if (holds) vec[i / 64] |= uint64_t{1} << (i % 64);
    }
    words_touched_ += wpr_;
    ExpandVector(std::move(vec), slot, rank, out);
    return true;
  }

  /// Sets bits [0, upto] (inclusive) in a zeroed row of wpr_ words.
  void PrefixMask(uint64_t* w, size_t upto) const {
    const size_t full = upto / 64;
    for (size_t i = 0; i < full; ++i) w[i] = ~uint64_t{0};
    w[full] = (upto % 64 == 63) ? ~uint64_t{0}
                                : ((uint64_t{1} << (upto % 64 + 1)) - 1);
  }

  /// Sets bits [from, n) in a zeroed row of wpr_ words.
  void SuffixMask(uint64_t* w, size_t from) const {
    const size_t first = from / 64;
    w[first] = ~uint64_t{0} << (from % 64);
    for (size_t i = first + 1; i < wpr_; ++i) w[i] = ~uint64_t{0};
    w[wpr_ - 1] &= tail_;
  }

  /// Reduces the highest slot: rank 2 -> rank 1 by row-any/row-all, rank 1
  /// -> rank 0 by vector-any/vector-all.
  void ReduceLastSlot(DenseResult* v, bool exists) {
    if (v->rank == 2) {
      std::vector<uint64_t> vec(wpr_, 0);
      for (size_t r = 0; r < n_; ++r) {
        const uint64_t* row = v->words.data() + r * wpr_;
        bool value;
        if (exists) {
          uint64_t any = 0;
          for (size_t i = 0; i < wpr_; ++i) any |= row[i];
          value = any != 0;
        } else {
          value = true;
          for (size_t i = 0; i + 1 < wpr_; ++i) {
            if (row[i] != ~uint64_t{0}) {
              value = false;
              break;
            }
          }
          if (value) value = row[wpr_ - 1] == tail_;
        }
        if (value) vec[r / 64] |= uint64_t{1} << (r % 64);
      }
      words_touched_ += n_ * wpr_;
      v->rank = 1;
      v->words = std::move(vec);
      return;
    }
    DYNFO_CHECK(v->rank == 1);
    bool value;
    if (exists) {
      uint64_t any = 0;
      for (size_t i = 0; i < wpr_; ++i) any |= v->words[i];
      value = any != 0;
    } else {
      value = true;
      for (size_t i = 0; i + 1 < wpr_; ++i) {
        if (v->words[i] != ~uint64_t{0}) {
          value = false;
          break;
        }
      }
      if (value) value = v->words[wpr_ - 1] == tail_;
    }
    words_touched_ += wpr_;
    v->rank = 0;
    v->bit = value;
    v->words.clear();
  }

  const DenseExecContext& ctx_;
  size_t n_;
  size_t wpr_;
  uint64_t tail_;
  uint64_t words_touched_ = 0;
  size_t poll_counter_ = 0;
};

}  // namespace

bool ExecuteDenseProgram(const DenseProgram& program,
                         const DenseExecContext& ctx, DenseResult* out) {
  DYNFO_CHECK(ctx.structure != nullptr && program.root != nullptr);
  DenseEvaluator eval(ctx, ctx.structure->universe_size());
  const bool ok = eval.Eval(*program.root, out);
  if (ctx.stats != nullptr) {
    Count(ctx.stats->dense_kernel_launches);
    // Rank-0 programs touch no vector words; skip the no-op atomic add.
    if (eval.words_touched() != 0) {
      Count(ctx.stats->words_scanned, eval.words_touched());
    }
  }
  return ok;
}

}  // namespace dynfo::fo
