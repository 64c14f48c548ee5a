/// \file plan.h
/// Compile-once query plans for formula evaluation.
///
/// The algebra evaluator's greedy conjunction planner decides which
/// conjuncts act as filters, which generator binds each variable, and which
/// atom positions are pinned by request parameters. None of those decisions
/// depend on the structure's *contents* — only on the formula and the
/// vocabulary — so the planner runs once per formula at program-load time
/// and emits a reusable operator tree that ExecutePlan() replays against
/// any structure/parameter binding. The hot Apply path then does zero
/// planning work per update.
///
/// Plans also record, per relation atom, the exact set of argument positions
/// whose values are known before the atom is touched (bound variables and
/// ground terms — including request parameters). Those position sets become
/// persistent secondary indexes on the stored relations
/// (relational/index.h), registered once at load time and probed on every
/// execution, so an atom join costs O(matching rows) instead of O(|R|).
///
/// Both layers are gated: EvalOptions::use_compiled_plans off recompiles
/// the plan on every evaluation (the replan ablation), and
/// EvalOptions::use_indexes off replaces index probes with per-join hash
/// builds. In all configurations the result is observationally identical
/// to NaiveEvaluator (property-tested).

#ifndef DYNFO_FO_PLAN_H_
#define DYNFO_FO_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fo/eval_context.h"
#include "fo/eval_stats.h"
#include "fo/formula.h"
#include "fo/named_relation.h"
#include "relational/structure.h"

namespace dynfo::fo {

class Plan;
using PlanPtr = std::shared_ptr<const Plan>;

/// Compiled access path for one relation atom R(t1..tk): which argument
/// positions are checkable before scanning (the probe key) and which bind new
/// output columns. Compiled against a fixed input schema (the bound columns
/// at this point of the plan); ground term *values* (constants, parameters,
/// min/max) are resolved per execution.
struct AtomAccess {
  std::string relation_name;
  int relation_index = -1;
  int arity = 0;

  /// A key component: atom argument position `position` must equal the value
  /// of input column `source_column`, or of the ground term when
  /// source_column < 0. Sorted by position (the canonical index-key order).
  struct KeyPart {
    int position = 0;
    int source_column = -1;
    Term ground = Term::Min();
  };
  std::vector<KeyPart> key;

  /// First-occurrence positions of new variables, in position order; the
  /// output row appends the tuple component at each, named by `new_columns`.
  std::vector<int> extend_positions;
  std::vector<std::string> new_columns;

  /// Later occurrences of a new variable: candidate[position] must equal
  /// candidate[first_position].
  struct DupCheck {
    int position = 0;
    int first_position = 0;
  };
  std::vector<DupCheck> dup_checks;

  /// The sorted position subset to index on (extracted from `key`).
  std::vector<int> KeyPositions() const;
};

/// One step of a compiled conjunction, in execution order: the greedy
/// planner's operator classes.
enum class ConjStepKind {
  kFilterRows,    ///< fully-bound conjunct: keep rows where it holds
  kSemiJoin,      ///< fully-bound quantified conjunct: (anti-)semi-join child
  kEqExtend,      ///< x = t, t computable per row: append one column
  kIndexJoin,     ///< relation atom: probe a persistent index (or hash join)
  kUnionExtend,   ///< one unbound var, disjunction of atoms/equalities:
                  ///< extend by the union of per-branch index probes
  kFilterExtend,  ///< one unbound var, quantifier-free: extend + naive filter
  kSatJoin,       ///< last resort: natural join with the child's full Sat
};

/// One branch of a kUnionExtend step: a source of candidate values for the
/// step's single new variable, given a bound row. Either a relation atom
/// whose only fresh variable is that variable (index probe → bucket values)
/// or an equality pinning it to an input column / ground term. Every branch
/// derives values from stored tuples or bound terms — never the universe —
/// which is what makes the operator delta-safe (PlanIsDeltaBounded).
struct ExtendBranch {
  bool is_atom = false;
  AtomAccess atom;  ///< is_atom: new_columns == {var}
  bool eq_from_column = false;
  int eq_source_column = -1;
  Term eq_term = Term::Min();
};

struct ConjStep {
  ConjStepKind kind = ConjStepKind::kFilterRows;
  /// The accumulator schema entering this step (for per-row environments).
  std::vector<std::string> columns_before;

  /// kFilterRows / kFilterExtend: conjunct evaluated naively per row.
  FormulaPtr formula;

  /// kSemiJoin / kSatJoin: compiled subplan; `anti` negates the semi-join.
  PlanPtr child;
  bool anti = false;

  /// kEqExtend / kFilterExtend: the new column.
  std::string var;
  /// kEqExtend value source: an input column, or a ground term.
  bool eq_from_column = false;
  int eq_source_column = -1;
  Term eq_term = Term::Min();

  /// kIndexJoin: `probe` keys on bound columns + ground terms; `scan` is the
  /// same atom compiled standalone, the build side of the hash-join fallback
  /// used when indexes are disabled.
  AtomAccess probe;
  AtomAccess scan;

  /// kUnionExtend: one branch per disjunct. With indexes disabled the step
  /// degrades to the kFilterExtend shape via `formula` (the disjunction).
  std::vector<ExtendBranch> union_branches;
};

enum class PlanKind {
  kUnit,         ///< one empty row ("true")
  kEmpty,        ///< no rows ("false")
  kAtomScan,     ///< standalone relation atom (key = ground terms only)
  kNumeric,      ///< =, <=, BIT
  kComplement,   ///< universe^k minus the child
  kConjunction,  ///< greedy step sequence
  kUnion,        ///< disjunction with per-child padding
  kProject,      ///< exists: project the child
  kForallGroup,  ///< forall: group-count the child
};

/// An immutable compiled operator tree. Output schema (`columns`) is fixed at
/// compile time: the formula's free variables, in the order the operators
/// bind them.
class Plan {
 public:
  PlanKind kind = PlanKind::kUnit;
  std::vector<std::string> columns;

  /// kAtomScan (columns == atom.new_columns).
  AtomAccess atom;

  /// kNumeric.
  FormulaKind numeric_kind = FormulaKind::kEq;
  Term left = Term::Min();
  Term right = Term::Min();

  /// kComplement / kProject / kForallGroup: one child; kUnion: one per
  /// disjunct.
  std::vector<PlanPtr> children;

  /// kConjunction.
  std::vector<ConjStep> steps;

  /// kUnion, per child: output column j takes child column union_sources[i][j]
  /// when >= 0, else pad slot -(union_sources[i][j] + 1) ranging over the
  /// universe. union_pad_counts[i] is the number of pad slots.
  std::vector<std::vector<int>> union_sources;
  std::vector<int> union_pad_counts;

  /// kProject: positions into the child's columns, one per output column.
  std::vector<int> project_positions;

  /// kForallGroup: positions of the kept (non-quantified) child columns, and
  /// the number of quantified variables present in the body (a group is full
  /// when it has n^group_arity rows).
  std::vector<int> keep_positions;
  int group_arity = 0;
};

/// Compiles formulas against a fixed vocabulary. Stateless beyond the
/// vocabulary reference; the compiled plan is valid for any structure over
/// that vocabulary and any parameter binding.
class PlanCompiler {
 public:
  explicit PlanCompiler(const relational::Vocabulary& vocabulary)
      : vocabulary_(vocabulary) {}

  PlanPtr Compile(const FormulaPtr& formula) const;

 private:
  PlanPtr CompileNode(const Formula& f) const;
  PlanPtr CompileAtomScan(const Formula& f) const;
  PlanPtr CompileNumeric(const Formula& f) const;
  PlanPtr CompileAnd(const Formula& f) const;
  PlanPtr CompileOr(const Formula& f) const;
  PlanPtr CompileExists(const Formula& f) const;
  PlanPtr CompileForall(const Formula& f) const;

  /// Compiles one atom against the given bound schema: bound variables and
  /// ground terms become key parts, fresh variables become extensions.
  AtomAccess CompileAtom(const Formula& f,
                         const std::vector<std::string>& bound) const;

  const relational::Vocabulary& vocabulary_;
};

/// Semi-naive removal program for one delta rule R' = (R ∧ keep) ∨ additions.
/// The removal side is compiled from ¬keep (normalized to NNF): its
/// satisfying rows, expanded against the tuples already stored in the base
/// relation, are exactly Δ⁻ — the stored tuples the update deletes. The
/// additions side already produces Δ⁺ directly (it is unioned into the
/// target), so together the two sides let Apply touch only changed tuples.
///
/// A program is *bounded* ("delta-safe") when the compiled removal plan
/// derives every row from stored tuples and bound terms — no operator ranges
/// over the whole universe (see PlanIsDeltaBounded). Unbounded programs make
/// the caller fall back to full rematerialization, which stays the
/// unconditional correctness path.
struct DeltaProgram {
  bool bounded = false;
  int base_relation_index = -1;
  int base_arity = 0;

  /// Compiled NNF of ¬keep; null when keep ≡ true (nothing is ever removed).
  PlanPtr remove_plan;

  /// Base argument positions covered by the remove plan's output columns
  /// (sorted ascending — the canonical index-key order) and, parallel to
  /// them, the plan column each position reads from.
  std::vector<int> key_positions;
  std::vector<int> key_source_columns;

  /// When the plan binds every base position, each removal row *is* a full
  /// candidate tuple: full_tuple_sources[p] is the plan column for base
  /// position p, and expansion is a membership check instead of an index
  /// probe.
  bool covers_all_positions = false;
  std::vector<int> full_tuple_sources;
};

/// True when `f` contains no quantifier.
bool IsQuantifierFree(const Formula& f);

/// Whether every name in `small` occurs in `big`.
bool Subset(const std::vector<std::string>& small, const std::vector<std::string>& big);

/// The names of `a` that are not in `b`, in `a`'s order.
std::vector<std::string> SetMinus(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b);

/// Compiles the removal side of the delta rule
/// `R'(x-bar) = (R(x-bar) ∧ keep) ∨ additions` with x-bar = `tuple_variables`
/// in order. `not_keep` must be ¬keep in negation normal form (or null when
/// keep ≡ true). The result is bounded only when the compiled plan is
/// delta-safe and every plan column maps to a tuple variable.
DeltaProgram CompileDeltaRemovals(const PlanCompiler& compiler,
                                  const FormulaPtr& not_keep,
                                  const std::vector<std::string>& tuple_variables,
                                  int base_relation_index, int base_arity);

/// True when every row `plan` emits derives from stored tuples and bound
/// terms: rejects complements, union padding, universe-ranging numeric
/// comparisons, and filtered extensions, recursing into joined subplans.
bool PlanIsDeltaBounded(const Plan& plan);

/// Executes a compiled plan. Honors ctx.options.use_indexes and counts its
/// operators into `stats`.
NamedRelation ExecutePlan(const Plan& plan, const EvalContext& ctx,
                          AtomicEvalStats* stats);

/// Executes a bounded removal program against the base relation stored in
/// ctx.structure: runs the remove plan, then expands each row to stored
/// tuples — by membership check when the plan binds every position, else by
/// probing the base's persistent index on key_positions (an empty key with a
/// nonempty plan result clears the whole relation, which is what the rule
/// demands). Returned tuples are distinct.
std::vector<relational::Tuple> ExecuteDeltaRemovals(const DeltaProgram& program,
                                                    const EvalContext& ctx,
                                                    AtomicEvalStats* stats);

/// Registers every index the plan will probe on the relations of
/// `structure`, so the first execution pays no index builds. Increments
/// stats->index_builds per index actually constructed (when non-null).
void RegisterPlanIndexes(const Plan& plan, const relational::Structure& structure,
                         AtomicEvalStats* stats = nullptr);

/// Same, for a removal program: the remove plan's own probe indexes plus the
/// base-relation expansion index on key_positions.
void RegisterDeltaProgramIndexes(const DeltaProgram& program,
                                 const relational::Structure& structure,
                                 AtomicEvalStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Dense bit-parallel kernel lowering.
//
// A second, lower compilation tier below the operator-tree plans: formulas
// whose variables fit in at most two "slots" lower to a DenseProgram whose
// execution works on whole 64-bit words of packed DenseSet bitmaps (AND /
// ANDNOT / OR / complement-with-tail-mask + popcount reductions) instead of
// interpreting operator trees row by row. Slot 0 indexes bitmap rows, slot 1
// bitmap columns; a rank-0 value is a single bit, rank 1 a bit vector over
// the universe, rank 2 an n-row plane. Quantifiers push their variables as
// the highest slots and reduce them with row-wise any/all. Lowering is total
// or refused: LowerToDense returns null whenever any subformula would need
// more than two slots or a slot-dependent atom over a relation wider than
// DenseSet::kMaxDenseArity, and the caller falls back to the plan executor.

/// A term pre-resolved at lowering time: exec resolves kParam against the
/// request tuple, kConstant against the structure's constant table (by index,
/// so kSetConstant updates are honored), kMax against n-1.
struct DenseTerm {
  enum class Kind : uint8_t { kSlot, kParam, kConstant, kLiteral, kMax };
  Kind kind = Kind::kLiteral;
  int index = 0;                  ///< slot / parameter / constant index
  relational::Element value = 0;  ///< kLiteral
};

enum class DenseOpKind {
  kConst,    ///< true / false
  kAtom,     ///< R(t1..tk); ground-only atoms stay scalar Contains probes
  kNumeric,  ///< =, <=, BIT lowered to masks (BIT per-bit)
  kNot,      ///< complement + tail mask
  kAnd,      ///< word-wise AND fold
  kOr,       ///< word-wise OR fold
  kExists,   ///< reduce the highest slot(s) by row-any
  kForall,   ///< reduce the highest slot(s) by row-all
};

struct DenseOp;
using DenseOpPtr = std::shared_ptr<const DenseOp>;

struct DenseOp {
  DenseOpKind kind = DenseOpKind::kConst;
  int rank = 0;  ///< slots in scope at this node (0..2)
  bool const_value = false;
  int relation_index = -1;  ///< kAtom
  int relation_arity = 0;
  std::vector<DenseTerm> args;  ///< kAtom arguments
  FormulaKind numeric_kind = FormulaKind::kEq;
  DenseTerm left, right;  ///< kNumeric
  int quantified = 0;     ///< kExists / kForall: slots reduced
  std::vector<DenseOpPtr> children;
};

/// A lowered formula plus the inputs its kernels read word-wise.
struct DenseProgram {
  int rank = 0;  ///< output rank == number of free slots
  DenseOpPtr root;
  /// Relations referenced with slot arguments: execution reads their packed
  /// words, so the engine must hold a DenseBaseView for each (ground-only
  /// atom relations are probed through Relation::Contains and may stay hash).
  std::vector<int> view_relations;
};
using DenseProgramPtr = std::shared_ptr<const DenseProgram>;

/// Lowers `formula`, whose free variables are exactly `slots` (in slot
/// order), against the vocabulary. Returns null when the formula does not
/// fit the dense tier (see file comment above).
DenseProgramPtr LowerToDense(const FormulaPtr& formula,
                             const std::vector<std::string>& slots,
                             const relational::Vocabulary& vocabulary);

/// Everything dense execution needs; no Env, no heap beyond rank>=1 scratch.
struct DenseExecContext {
  const relational::Structure* structure = nullptr;
  const relational::Element* params = nullptr;  ///< request tuple components
  int num_params = 0;
  const core::ExecGovernor* governor = nullptr;  ///< polled strided; nullable
  AtomicEvalStats* stats = nullptr;              ///< nullable
};

/// A dense value: rank 0 is `bit`; rank 1 `words` holds ceil(n/64) words;
/// rank 2 holds n rows of ceil(n/64) words. Tail bits are always zero.
struct DenseResult {
  int rank = 0;
  bool bit = false;
  std::vector<uint64_t> words;
};

/// Executes a lowered program. Returns false when the governor stopped the
/// run mid-kernel (out is unspecified then); nothing observable is mutated
/// either way. Missing DenseBaseViews degrade to per-bit Contains probes, so
/// results are correct for any backend mix.
bool ExecuteDenseProgram(const DenseProgram& program,
                         const DenseExecContext& ctx, DenseResult* out);

}  // namespace dynfo::fo

#endif  // DYNFO_FO_PLAN_H_
