#!/usr/bin/env python3
"""Merges google-benchmark JSON outputs into one BENCH_core.json.

Stdlib only. Alongside the raw per-benchmark rows it computes the derived
ablation quotients the plan/index work is judged by (see EXPERIMENTS.md,
"Evaluator ablation"): per-update evaluation speedups of compiled+indexed
plans over the re-planning evaluator, plan-cache hit rates, per-update
planner invocations, and the delta-materialization counters (DESIGN.md §11).

The re-planning baseline ("Replan" rows) compiles a fresh plan on every
evaluation (PlanCompiler + ExecutePlan, no cache), so the quotients isolate
what compile-once and the persistent indexes buy.

Debug-built inputs are rejected (the numbers are meaningless to quote or
gate on). The JSON context's library_build_type describes the *benchmark
library* — a system-packaged libbenchmark reports "debug" even under a fully
optimized build of this repo — so tools/run_benches.sh forwards the build
tree's CMAKE_BUILD_TYPE via --binary-build-type as the authoritative word on
the binaries themselves; either source saying "release" is accepted. Pass
--allow-debug only for tooling tests.
--min-speedup KEY:RATIO and --min-delta-write-ratio turn derived metrics
into hard CI gates: the script exits non-zero when a gate fails. The
survival and overhead gates (crash recovery, governance overhead, service
soak) live in GATE_GROUPS below, each threshold written once; --require
GROUP enforces a group.
"""

import argparse
import json
import re
import sys

# Standard google-benchmark fields kept per row; everything else numeric is
# treated as a user counter.
KEEP_FIELDS = ("name", "iterations", "real_time", "cpu_time", "time_unit",
               "items_per_second")
STANDARD_FIELDS = KEEP_FIELDS + (
    "run_name", "run_type", "repetitions", "repetition_index", "threads",
    "family_index", "per_family_instance_index", "aggregate_name",
    "label", "error_occurred", "error_message")


def load_rows(paths):
    """One row per benchmark, keyed by its base (un-suffixed) name.

    When a file carries repetition aggregates (tools/run_benches.sh runs
    --benchmark_repetitions so single-shot scheduler noise cannot decide a
    gate), the *median* aggregate is the row and any raw repetition rows are
    dropped; plain single-run files pass through unchanged. Non-median
    aggregates (mean/stddev/cv) are never emitted.
    """
    rows = []
    seen = {}  # base name -> (row index, is_median)
    context = None
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        if context is None:
            context = data.get("context", {})
        binary = data.get("context", {}).get("executable", path)
        binary = binary.rsplit("/", 1)[-1].removesuffix(".json")
        for bench in data.get("benchmarks", []):
            is_median = (bench.get("run_type") == "aggregate" and
                         bench.get("aggregate_name") == "median")
            if bench.get("run_type") == "aggregate" and not is_median:
                continue
            base = bench.get("run_name", bench.get("name"))
            if base in seen and (seen[base][1] or not is_median):
                continue  # keep the median over raw, the first row otherwise
            row = {"binary": binary}
            for field in KEEP_FIELDS:
                if field in bench:
                    row[field] = bench[field]
            row["name"] = base
            counters = {k: v for k, v in bench.items()
                        if k not in STANDARD_FIELDS and isinstance(v, (int, float))}
            if counters:
                row["counters"] = counters
            if base in seen:
                rows[seen[base][0]] = row
            else:
                rows.append(row)
            seen[base] = (len(rows) - 1 if base not in seen else seen[base][0],
                          is_median)
    return context or {}, rows


# Survival and overhead gates, one threshold each: derived-metric path,
# comparison, bound. `--require GROUP` enforces every gate of a group.
GATE_GROUPS = {
    # DESIGN.md §12: every crash-matrix kill point revives bit-identically,
    # revival stays fast, and per-append fsync costs at most 1.25x the
    # buffered session (measured on tmpfs, so the code path, not the disk).
    "crash_recovery": [
        ("recovery.crash_recovery_rate", "==", 1.0),
        ("recovery.recovery_seconds_avg", "<=", 0.25),
        ("recovery.durable_overhead", "<=", 1.25),
    ],
    # DESIGN.md §10: a governed session whose governance never trips (1 h
    # deadline, 2^40-tuple budget) costs <= 1.20x the same reach_u replay
    # ungoverned; bench_chaos checks that the governed side polled and that
    # both sides end in the same state.
    "governance_overhead": [
        ("chaos.governance_overhead", "<=", 1.20),
    ],
    # DESIGN.md §15: zero crashes, every read linearizes, the post-soak
    # state equals the oracle's, and a copy-on-write view costs <= 5% of a
    # deep snapshot.
    "service_soak": [
        ("service.soak.crashes", "==", 0),
        ("service.soak.read_linearizability", "==", 1.0),
        ("service.soak.oracle_identical", "==", 1.0),
        ("service.snapshot_view_o1_ratio_max", "<=", 0.05),
    ],
}


def by_name(rows):
    return {row["name"]: row for row in rows}


def largest_arg(rows, prefix):
    """The row '<prefix>/<n>' with the largest n, or None."""
    best = None
    best_arg = -1
    for row in rows:
        name = row["name"]
        if not name.startswith(prefix + "/"):
            continue
        try:
            arg = int(name.rsplit("/", 1)[1])
        except ValueError:
            continue
        if arg > best_arg:
            best, best_arg = row, arg
    return best


def speedup(rows, slow_prefix, fast_prefix):
    """real_time quotient slow/fast at the largest common benchmark size."""
    slow = largest_arg(rows, slow_prefix)
    fast = largest_arg(rows, fast_prefix)
    if not slow or not fast or fast["real_time"] <= 0:
        return None
    if slow["name"].rsplit("/", 1)[1] != fast["name"].rsplit("/", 1)[1]:
        return None
    return {
        "at": slow["name"].rsplit("/", 1)[1],
        "slow": slow["name"],
        "fast": fast["name"],
        "speedup": round(slow["real_time"] / fast["real_time"], 3),
    }


def derive(rows):
    derived = {}
    # Per-update evaluation of the request-local reach_u subformula (the hot
    # shape the plan/index layer targets) and parity's full update formula.
    pairs = {
        "reach_u_update_eval": ("BM_UpdateLocalityReplan",
                                "BM_UpdateLocalityCompiledIndexed"),
        "reach_u_update_eval_compiled_only": ("BM_UpdateLocalityReplan",
                                              "BM_UpdateLocalityCompiled"),
        "parity_update_eval": ("BM_ParityUpdateEvalReplan",
                               "BM_ParityUpdateEvalCompiled"),
        # End-to-end Apply (includes inherent result materialization, which
        # the plan layer cannot remove — see EXPERIMENTS.md).
        "reach_u_apply": ("BM_EvalAlgebraReplan", "BM_EvalAlgebraCompiledIndexed"),
        # The headline parity gate runs on the dense kernel path (DESIGN.md
        # §13); the plan-layer-only pair is kept under _hash for the ablation.
        "parity_apply": ("BM_ParityReplan", "BM_ParityDense"),
        "parity_apply_hash": ("BM_ParityReplan", "BM_ParityCompiledIndexed"),
        "parity_apply_dense_vs_hash": ("BM_ParityCompiledIndexed",
                                       "BM_ParityDense"),
        "reach_u_apply_dense_vs_hash": ("BM_EvalAlgebraCompiledIndexed",
                                        "BM_EvalAlgebraDense"),
    }
    speedups = {}
    for key, (slow, fast) in pairs.items():
        result = speedup(rows, slow, fast)
        if result is not None:
            speedups[key] = result
    # The headline parity gate prefers the *paired* measurement: the
    # benchmark replays both variants back-to-back inside one iteration and
    # reports the quotient itself, so minutes-scale host drift between two
    # independently timed rows cannot swing the gate. Falls back to the
    # row quotient when the paired benchmark was not run.
    paired = largest_arg(rows, "BM_ParityDenseSpeedup")
    if paired is not None and "speedup" in paired.get("counters", {}):
        speedups["parity_apply"] = {
            "at": paired["name"].rsplit("/", 1)[1],
            "slow": "BM_ParityReplan (paired)",
            "fast": "BM_ParityDense (paired)",
            "speedup": round(paired["counters"]["speedup"], 3),
            "paired": True,
        }
    derived["speedups"] = speedups

    hit_rates = []
    planner_runs = []
    for row in rows:
        counters = row.get("counters", {})
        if "Compiled" in row["name"] and "plan_cache_hit_rate" in counters:
            hit_rates.append(counters["plan_cache_hit_rate"])
        if "Compiled" in row["name"] and "planner_runs_per_update" in counters:
            planner_runs.append(counters["planner_runs_per_update"])
    if hit_rates:
        derived["plan_cache_hit_rate_min"] = round(min(hit_rates), 6)
    if planner_runs:
        derived["planner_runs_per_update_max"] = max(planner_runs)

    # Delta-materialization counters from the default-configuration engine
    # replay (semi-naive plan execution; see DESIGN.md §11). delta_write_ratio
    # = tuples_delta_written / tuples_written: the share of materialized
    # tuples that came from O(delta) paths rather than full rematerialization.
    delta_row = largest_arg(rows, "BM_EvalAlgebraCompiledIndexed")
    if delta_row is not None:
        counters = delta_row.get("counters", {})
        delta = {k: counters[k] for k in
                 ("delta_write_ratio", "tuples_delta_written_per_update",
                  "delta_rules_per_update", "fallback_recomputes_per_update")
                 if k in counters}
        if delta:
            delta["at"] = delta_row["name"]
            derived["delta"] = delta

    # Dense-backend counters from the bit-parallel replay (DESIGN.md §13):
    # how much of the workload ran on the word-level kernel path and how many
    # 64-bit words those kernels touched per update.
    dense_row = largest_arg(rows, "BM_ParityDense")
    if dense_row is not None:
        counters = dense_row.get("counters", {})
        dense = {k: counters[k] for k in
                 ("dense_applies_per_update", "dense_kernels_per_update",
                  "dense_words_per_update", "backend_conversions")
                 if k in counters}
        if dense:
            dense["at"] = dense_row["name"]
            derived["dense"] = dense

    batch = derive_batch(rows)
    if batch:
        derived["batch"] = batch

    service = derive_service(rows)
    if service:
        derived["service"] = service

    # The crash-recovery scoreboard (DESIGN.md §12) and the governance
    # overhead quotient (DESIGN.md §10), as their benchmarks report them.
    recovery = first_counters(rows, "BM_CrashMatrix",
                              ("crash_recovery_rate", "recovery_seconds_avg"))
    recovery |= first_counters(rows, "BM_DurableOverhead", ("durable_overhead",))
    if recovery:
        derived["recovery"] = recovery
    chaos = first_counters(rows, "BM_GovernanceOverhead", ("governance_overhead",))
    if chaos:
        derived["chaos"] = chaos
    return derived


def first_counters(rows, prefix, keys):
    """`keys` from the counters of the first row whose name starts with
    `prefix` (empty when there is none)."""
    for row in rows:
        if row["name"].startswith(prefix):
            counters = row.get("counters", {})
            return {k: counters[k] for k in keys if k in counters}
    return {}


def derive_service(rows):
    """derived.service: the multi-session soak scoreboard (DESIGN.md §15).

    From the largest BM_ServiceSoak run: the survival gates (crashes,
    read linearizability against the applied history, bit-identical oracle
    state), the admission-control counters, read amortization
    (reads_served_per_snapshot), and the read-tier distribution by
    ExecTier slot (slot 1, the retired compiled tier, reads 0). From
    BM_SnapshotViewO1: the worst copy-on-write-view vs deep-snapshot cost
    quotient across benched universe sizes — the O(1) publish claim as a
    number — and the deep snapshot's own cost at each size
    (deep_snapshot_ns_n<size>), the quotient's denominator: a faster
    serializer raises the quotient without the view getting slower.
    """
    service = {}
    # The soak registers with Iterations(1), so its name carries an
    # "/iterations:1" suffix that largest_arg's trailing-int parse rejects.
    soak = None
    soak_arg = -1
    for row in rows:
        m = re.match(r"BM_ServiceSoak/(\d+)(?:/|$)", row["name"])
        if m and int(m.group(1)) > soak_arg:
            soak, soak_arg = row, int(m.group(1))
    if soak is not None:
        counters = soak.get("counters", {})
        entry = {k: counters[k] for k in
                 ("crashes", "read_linearizability", "oracle_identical",
                  "reads_checked", "admission_rejections",
                  "admission_timeouts", "reads_served_per_snapshot",
                  "sessions", "reconnects", "faults_injected",
                  "deadline_trips")
                 if k in counters}
        tiers = [counters.get(f"read_tier{i}_rate") for i in range(3)]
        if all(t is not None for t in tiers):
            entry["read_tier_rates"] = [round(t, 6) for t in tiers]
        if entry:
            entry["at"] = soak["name"]
            service["soak"] = entry
    ratios = [row["counters"]["o1_ratio"] for row in rows
              if row["name"].startswith("BM_SnapshotViewO1/") and
              "o1_ratio" in row.get("counters", {})]
    if ratios:
        service["snapshot_view_o1_ratio_max"] = round(max(ratios), 6)
    for row in rows:
        m = re.match(r"BM_SnapshotViewO1/(\d+)(?:/|$)", row["name"])
        deep = row.get("counters", {}).get("deep_snapshot_ns")
        if m and deep is not None:
            service[f"deep_snapshot_ns_n{m.group(1)}"] = round(deep)
    return service


def derive_batch(rows):
    """derived.batch: group-commit amortization per program (DESIGN.md §14).

    From each bench_batch family BM_BatchApply<Program>/<batch-size> (names
    carry a /real_time suffix — the fsync wait is the point, so those rows
    are timed on the wall clock): the batch-256 vs batch-1 requests/second
    ratio, the commit counters at batch 256, and the worst fsyncs-per-request
    over every batch size >= 256 (the CI gate's subject — one group commit
    per batch means 1/256 = 0.0039, far under the 0.05 ceiling unless the
    batching path regresses to per-request fsync).
    """
    families = {}
    for row in rows:
        m = re.fullmatch(r"BM_BatchApply(\w+)/(\d+)(?:/real_time)?",
                         row["name"])
        if not m:
            continue
        program = re.sub(r"(?<!^)(?=[A-Z])", "_", m.group(1)).lower()
        families.setdefault(program, {})[int(m.group(2))] = row
    batch = {}
    for program, sizes in families.items():
        base = sizes.get(1)
        best = sizes.get(256)
        if (base is None or best is None or
                not base.get("items_per_second") or
                not best.get("items_per_second")):
            continue
        entry = {
            "at": best["name"],
            "batch_1_items_per_second": round(base["items_per_second"], 3),
            "batch_256_items_per_second": round(best["items_per_second"], 3),
            "speedup_256_vs_1": round(best["items_per_second"] /
                                      base["items_per_second"], 3),
        }
        for key in ("fsyncs_per_request", "journal_bytes_per_request"):
            if key in best.get("counters", {}):
                entry[key] = best["counters"][key]
        worst = [row["counters"]["fsyncs_per_request"]
                 for size, row in sizes.items()
                 if size >= 256 and "fsyncs_per_request" in row.get("counters", {})]
        if worst:
            entry["fsyncs_per_request_max_at_256plus"] = max(worst)
        batch[program] = entry
    return batch


def check_gates(derived, args):
    """Returns a list of human-readable gate failures (empty = all pass)."""
    failures = []
    for spec in args.min_speedup or []:
        key, _, threshold = spec.partition(":")
        if not threshold:
            failures.append(f"malformed --min-speedup '{spec}' (want KEY:RATIO)")
            continue
        entry = derived.get("speedups", {}).get(key)
        if entry is None:
            failures.append(f"gate {key}: no derived speedup (benchmark missing?)")
        elif entry["speedup"] < float(threshold):
            failures.append(
                f"gate {key}: speedup {entry['speedup']} < required {threshold} "
                f"({entry['slow']} vs {entry['fast']})")
    if args.min_delta_write_ratio is not None:
        ratio = derived.get("delta", {}).get("delta_write_ratio")
        if ratio is None:
            failures.append("gate delta_write_ratio: counter missing from "
                            "BM_EvalAlgebraCompiledIndexed")
        elif ratio < args.min_delta_write_ratio:
            failures.append(f"gate delta_write_ratio: {ratio} < required "
                            f"{args.min_delta_write_ratio}")
    for spec in args.min_batch_speedup or []:
        key, _, threshold = spec.partition(":")
        if not threshold:
            failures.append(
                f"malformed --min-batch-speedup '{spec}' (want PROGRAM:RATIO)")
            continue
        entry = derived.get("batch", {}).get(key)
        if entry is None:
            failures.append(f"gate batch_speedup[{key}]: no derived.batch row "
                            "(bench_batch missing?)")
        elif entry["speedup_256_vs_1"] < float(threshold):
            failures.append(
                f"gate batch_speedup[{key}]: 256-vs-1 throughput ratio "
                f"{entry['speedup_256_vs_1']} < required {threshold}")
    if args.max_batch_fsyncs is not None:
        batch = derived.get("batch", {})
        if not batch:
            failures.append("gate batch_fsyncs: no derived.batch rows "
                            "(bench_batch missing?)")
        for program, entry in sorted(batch.items()):
            worst = entry.get("fsyncs_per_request_max_at_256plus")
            if worst is None:
                failures.append(f"gate batch_fsyncs[{program}]: "
                                "fsyncs_per_request counter missing")
            elif worst > args.max_batch_fsyncs:
                failures.append(
                    f"gate batch_fsyncs[{program}]: {worst} fsyncs/request at "
                    f"batch >= 256 exceeds {args.max_batch_fsyncs}")
    for group in args.require or []:
        for path, op, bound in GATE_GROUPS[group]:
            value = derived
            for part in path.split("."):
                value = value.get(part) if isinstance(value, dict) else None
            if value is None:
                failures.append(f"gate {path}: metric missing (benchmark not run?)")
                continue
            passed = value == bound if op == "==" else value <= bound
            print(f"gate {path}: {value} (want {op} {bound})", file=sys.stderr)
            if not passed:
                failures.append(f"gate {path}: {value} fails {op} {bound}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+", help="google-benchmark JSON files")
    parser.add_argument("--out", required=True, help="aggregate destination")
    parser.add_argument("--allow-debug", action="store_true",
                        help="accept debug-built benchmark inputs (tooling "
                             "tests only; never for quoted numbers)")
    parser.add_argument("--binary-build-type", default="",
                        help="CMAKE_BUILD_TYPE of the benchmark binaries "
                             "(authoritative over the benchmark library's "
                             "self-reported library_build_type)")
    parser.add_argument("--min-speedup", action="append", metavar="KEY:RATIO",
                        help="fail unless derived speedup KEY >= RATIO "
                             "(repeatable)")
    parser.add_argument("--min-delta-write-ratio", type=float, metavar="R",
                        help="fail unless tuples_delta_written/tuples_written "
                             ">= R on the default-configuration replay")
    parser.add_argument("--min-batch-speedup", action="append",
                        metavar="PROGRAM:RATIO",
                        help="fail unless derived.batch[PROGRAM] 256-vs-1 "
                             "throughput ratio >= RATIO (repeatable)")
    parser.add_argument("--max-batch-fsyncs", type=float, metavar="F",
                        help="fail unless every derived.batch program stays "
                             "<= F fsyncs/request at batch sizes >= 256")
    parser.add_argument("--require", action="append", choices=sorted(GATE_GROUPS),
                        help="fail unless every gate of this GATE_GROUPS group "
                             "holds (repeatable)")
    args = parser.parse_args()

    context, rows = load_rows(args.inputs)
    library_type = context.get("library_build_type", "")
    binary_type = args.binary_build_type.lower()
    optimized = (library_type == "release" or
                 binary_type in ("release", "relwithdebinfo", "minsizerel"))
    if not optimized and not args.allow_debug:
        sys.exit(f"error: benchmark inputs report library_build_type="
                 f"'{library_type or '<missing>'}' and no optimized "
                 "--binary-build-type was supplied; refusing to aggregate "
                 "non-release numbers. Run via tools/run_benches.sh (which "
                 "verifies CMAKE_BUILD_TYPE=Release and forwards it) or pass "
                 "--allow-debug for tooling tests.")

    derived = derive(rows)
    # A "debug" library_build_type alongside an optimized --binary-build-type
    # is the system-packaged libbenchmark describing ITSELF, not the repo's
    # binaries; annotate so readers of BENCH_core.json don't misread the
    # numbers as debug-built.
    annotation = ({"library_build_type_note": "system_lib_selfreport"}
                  if library_type == "debug" and optimized else {})
    out = {
        "schema": 1,
        "context": {k: context[k] for k in
                    ("date", "host_name", "num_cpus", "mhz_per_cpu",
                     "library_build_type") if k in context} |
                   ({"binary_build_type": args.binary_build_type}
                    if args.binary_build_type else {}) | annotation,
        "derived": derived,
        "benchmarks": rows,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"aggregated {len(rows)} benchmark rows from {len(args.inputs)} files",
          file=sys.stderr)

    failures = check_gates(derived, args)
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
