#!/usr/bin/env python3
"""CI gate over bench records, plus a time report between two BENCH files.

Two modes, usable together.

1. Gate: compare_bench.py BASELINE CURRENT compares bench memory records
against a checked-in baseline. Both files are JSON-lines, one record per
row, as emitted by bench::emit_json_record (see bench/bench_common.hpp):

    {"bench": "table4_memory", "name": "H6_3D_sto3g/normal",
     "peak_tracked_bytes": 123456, "within_budget": true, "report": {...}}

Records are keyed by (bench, name). The gate fails when

  * a record's peak_tracked_bytes exceeds the baseline by more than
    --tolerance (default 10%), or
  * a record that was within_budget in the baseline is over budget now, or
  * a baseline record is missing from the current run (coverage loss),
    unless --allow-missing is given, or
  * a fused-engine record (name ending in "_fused") has a materialized
    sibling in the current run and its TOTAL peak-tracked bytes do not stay
    strictly below the sibling's conflict_csr subsystem high-water mark, or
    the fused run charged conflict_csr at all — the edge-free contract of
    the fused engine, gated on the Table-4 dataset records, or
  * a record carries a "counters" object (the deterministic work counters of
    obs::MetricsRegistry, emitted by single-threaded bench runs) in both
    files and any deterministic counter differs AT ALL — 0% tolerance,
    because logical work totals are a pure function of (dataset, seed,
    params). The avx2/scalar kernel split depends on the host ISA, so those
    two are gated on their SUM (total block-kernel invocations), not
    individually. A baseline counter missing from the current record is a
    coverage loss and fails too, or
  * a record carries a "coloring_hash" (the FNV-1a replay fingerprint of the
    final coloring, emitted by bench_incremental) in the baseline and the
    current value differs — or is missing — at all. Single-threaded
    colorings are bit-reproducible, so the hash is gated exactly, or
  * a record's report.over_budget_events (how often the tracker saw a
    charge past the budget) differs from the baseline's at all — the bench
    records that carry a budget run single-threaded, so the count is as
    deterministic as the counters, or
  * a subsystem key of the baseline's report.subsystems is missing from the
    current record (a subsystem renamed or dropped without refreshing the
    baseline). The subsystem values themselves are not gated; the total
    peak above is.

New records (present now, absent from the baseline) are reported but do not
fail the gate — refresh the baseline to start tracking them.

2. Time report: --prev BENCH_<a>.json --bench BENCH_<b>.json compares two
committed perfbench files (BENCH_21.json's "how" gives the protocol). For
each workload it takes the medians over each file's "change" runs: the
end-to-end metrics (names without a dot) from its untraced runs, the
per-layer metrics (layer.metric) from its traced runs. It prints every
median with its delta and fails only when an end-to-end time metric (unit
s, ms, us or ns) is more than twice its previous median. The two files
are recorded at different times, often on different hosts, so smaller
moves are read, not gated. Per-layer times come from one traced run per file and
are printed only: between BENCH_21.json and BENCH_22.json the same code
(the former's change, the latter's parent) read pauli.load_ms 0.16 and
0.46 ms. A gain or regression claim is made inside one BENCH file, where
parent and change run alternately on one host.

Usage: compare_bench.py BASELINE CURRENT [--tolerance 0.10]
       compare_bench.py --prev BENCH_21.json --bench BENCH_22.json
Exit status: 0 clean, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import statistics
import sys


def load_records(path):
    records = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    print(f"{path}:{line_no}: bad JSON ({err})", file=sys.stderr)
                    sys.exit(2)
                key = (row.get("bench", "?"), row.get("name", "?"))
                records[key] = row
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    return records


# Counters whose value is machine-dependent (runtime ISA dispatch picks the
# kernel); their sum — total block-kernel invocations — is deterministic and
# is what gets compared.
ISA_SPLIT_COUNTERS = ("edge_block_calls_avx2", "edge_block_calls_scalar")


def compare_counters(label, base_counters, cur_counters, failures):
    """Exact (0%-tolerance) comparison of deterministic work counters."""
    mismatches = 0
    for key in sorted(base_counters):
        if key in ISA_SPLIT_COUNTERS:
            continue
        base_value = base_counters[key]
        cur_value = cur_counters.get(key)
        if cur_value is None:
            failures.append(
                f"COUNTER  {label}: '{key}' missing from current record")
            mismatches += 1
        elif cur_value != base_value:
            failures.append(
                f"COUNTER  {label}: {key} {cur_value} != baseline "
                f"{base_value} (exact-match gate)")
            mismatches += 1
    base_kernel = sum(base_counters.get(k, 0) for k in ISA_SPLIT_COUNTERS)
    cur_kernel = sum(cur_counters.get(k, 0) for k in ISA_SPLIT_COUNTERS)
    if base_kernel != cur_kernel:
        failures.append(
            f"COUNTER  {label}: edge_block_calls (avx2+scalar) "
            f"{cur_kernel} != baseline {base_kernel} (exact-match gate)")
        mismatches += 1
    return mismatches


TIME_UNITS = ("s", "ms", "us", "ns")
GROSS_TIME_RATIO = 2.0


def load_bench(path):
    """Per-workload lists of the values of every metric of a BENCH file's
    "change" runs: undotted (end-to-end) names from untraced runs, dotted
    (per-layer) names from traced runs. Returns ({workload: {metric:
    [values]}}, {metric: unit})."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    values, units = {}, {}
    for run in bench.get("runs", []):
        if run.get("side") != "change":
            continue
        per_layer = run.get("trace") == 1
        metrics = run.get("record", {}).get("metrics", {})
        for name, metric in metrics.items():
            if ("." in name) != per_layer:
                continue
            workload = values.setdefault(run["workload"], {})
            workload.setdefault(name, []).append(metric["value"])
            units[name] = metric.get("unit", "")
    return values, units


def compare_bench_files(prev_path, bench_path):
    """Prints per-workload median deltas; returns the gross end-to-end
    time regressions (more than GROSS_TIME_RATIO times the previous
    median)."""
    prev, prev_units = load_bench(prev_path)
    cur, cur_units = load_bench(bench_path)
    units = {**prev_units, **cur_units}
    failures = []
    print(f"median deltas, {prev_path} -> {bench_path} (change runs)")
    for workload in sorted(set(prev) | set(cur)):
        print(f"\n{workload}")
        names = set(prev.get(workload, {})) | set(cur.get(workload, {}))
        # End-to-end metrics first, then the per-layer ones.
        for name in sorted(names, key=lambda n: ("." in n, n)):
            before = prev.get(workload, {}).get(name)
            after = cur.get(workload, {}).get(name)
            unit = units.get(name, "")
            if not before or not after:
                side = "prev" if not before else "bench"
                print(f"  {name:32s} {unit:6s} not in {side} file")
                continue
            a = statistics.median(before)
            b = statistics.median(after)
            delta = f"{(b / a - 1.0) * 100.0:+7.1f}%" if a else "    n/a"
            flag = ""
            gated = unit in TIME_UNITS and "." not in name
            if gated and a > 0 and b > GROSS_TIME_RATIO * a:
                flag = f"  REGRESSION (>{GROSS_TIME_RATIO:g}x)"
                failures.append(
                    f"TIME     {workload}/{name}: median {b:.6g} {unit} vs "
                    f"{a:.6g} {unit} in {prev_path}")
            print(f"  {name:32s} {unit:6s} {a:14.6g} -> {b:14.6g} "
                  f"{delta}{flag}")
    return failures


def gate_records(args):
    """The exact counter/hash and memory gate of BASELINE vs CURRENT."""
    baseline = load_records(args.baseline)
    current = load_records(args.current)

    failures = []
    counter_records = 0
    hash_records = 0
    for key, base_row in sorted(baseline.items()):
        label = f"{key[0]}/{key[1]}"
        cur_row = current.get(key)
        if cur_row is None:
            msg = f"MISSING  {label}: no record in current run"
            if args.allow_missing:
                print(f"warn: {msg}")
            else:
                failures.append(msg)
            continue

        base_peak = base_row.get("peak_tracked_bytes", 0)
        cur_peak = cur_row.get("peak_tracked_bytes", 0)
        limit = base_peak * (1.0 + args.tolerance)
        delta = (cur_peak / base_peak - 1.0) * 100.0 if base_peak else 0.0
        status = "ok"
        if base_peak and cur_peak > limit:
            status = "REGRESSION"
            failures.append(
                f"MEMORY   {label}: peak {cur_peak} B vs baseline "
                f"{base_peak} B ({delta:+.1f}%, limit +{args.tolerance:.0%})")
        if base_row.get("within_budget", True) and not cur_row.get(
                "within_budget", True):
            status = "REGRESSION"
            failures.append(f"BUDGET   {label}: run exceeded its memory budget")
        base_counters = base_row.get("counters")
        cur_counters = cur_row.get("counters")
        counter_note = ""
        if base_counters and cur_counters:
            counter_records += 1
            mismatches = compare_counters(label, base_counters, cur_counters,
                                          failures)
            if mismatches:
                status = "REGRESSION"
            counter_note = (f", counters {'DIVERGED' if mismatches else 'exact'}"
                            f" ({len(base_counters)} gated)")
        elif base_counters:
            status = "REGRESSION"
            failures.append(
                f"COUNTER  {label}: baseline has counters, current record "
                f"does not (coverage loss)")
        base_hash = base_row.get("coloring_hash")
        if base_hash is not None:
            cur_hash = cur_row.get("coloring_hash")
            hash_records += 1
            if cur_hash is None:
                status = "REGRESSION"
                failures.append(
                    f"HASH     {label}: baseline has coloring_hash, current "
                    f"record does not (coverage loss)")
            elif cur_hash != base_hash:
                status = "REGRESSION"
                failures.append(
                    f"HASH     {label}: coloring_hash {cur_hash} != baseline "
                    f"{base_hash} (replay determinism gate)")
            else:
                counter_note += ", coloring_hash exact"
        base_report = base_row.get("report", {})
        cur_report = cur_row.get("report", {})
        if "over_budget_events" in base_report:
            base_events = base_report["over_budget_events"]
            cur_events = cur_report.get("over_budget_events")
            if cur_events != base_events:
                status = "REGRESSION"
                failures.append(
                    f"BUDGET   {label}: over_budget_events {cur_events} != "
                    f"baseline {base_events} (exact-match gate)")
        cur_subsystems = cur_report.get("subsystems", {})
        for name in sorted(base_report.get("subsystems", {})):
            if name not in cur_subsystems:
                status = "REGRESSION"
                failures.append(
                    f"SUBSYS   {label}: subsystem '{name}' missing from "
                    f"current record (refresh the baseline if it was "
                    f"removed)")
        print(f"{status:10s} {label}: {base_peak} -> {cur_peak} B "
              f"({delta:+.1f}%){counter_note}")

    for key in sorted(set(current) - set(baseline)):
        print(f"new        {key[0]}/{key[1]}: not in baseline (refresh to track)")

    # Fused-engine contract: a "<name>_fused" record's whole tracked peak
    # must undercut its materialized sibling's conflict_csr HWM alone, and a
    # fused run must never charge conflict_csr.
    fused_checked = 0
    for (bench, name), row in sorted(current.items()):
        if not name.endswith("_fused"):
            continue
        label = f"{bench}/{name}"
        subsystems = row.get("report", {}).get("subsystems", {})
        if subsystems.get("conflict_csr", 0):
            failures.append(
                f"FUSED    {label}: charged conflict_csr "
                f"({subsystems['conflict_csr']} B) — the engine must be edge-free")
            continue
        sibling = current.get((bench, name[: -len("_fused")]))
        if sibling is None:
            continue
        csr_hwm = sibling.get("report", {}).get("subsystems", {}).get(
            "conflict_csr", 0)
        if not csr_hwm:
            continue
        fused_checked += 1
        fused_peak = row.get("peak_tracked_bytes", 0)
        if fused_peak >= csr_hwm:
            failures.append(
                f"FUSED    {label}: peak {fused_peak} B not below the "
                f"materialized conflict_csr HWM {csr_hwm} B")
        else:
            print(f"fused ok   {label}: peak {fused_peak} B < "
                  f"materialized conflict_csr {csr_hwm} B")

    if failures:
        print("\nbench memory gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench memory gate passed "
          f"({len(baseline)} records, {fused_checked} fused-vs-materialized "
          f"checks, {counter_records} counter records and "
          f"{hash_records} coloring hashes exact-matched, "
          f"tolerance +{args.tolerance:.0%})")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Give BASELINE and CURRENT, --prev and --bench, or both.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional growth in peak bytes")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when baseline records are absent")
    parser.add_argument("--prev", help="previous BENCH_<pr>.json")
    parser.add_argument("--bench", help="BENCH_<pr>.json to report on")
    args = parser.parse_args()
    gate = args.baseline is not None or args.current is not None
    report = args.prev is not None or args.bench is not None
    if (not gate and not report) or (gate and args.current is None) or (
            report and (args.prev is None or args.bench is None)):
        parser.print_usage(sys.stderr)
        return 2

    status = gate_records(args) if gate else 0
    if report:
        failures = compare_bench_files(args.prev, args.bench)
        if failures:
            print("\nbench time report FAILED (gross regressions):",
                  file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            status = 1
        else:
            print(f"\nbench time report passed (no end-to-end time metric "
                  f"above {GROSS_TIME_RATIO:g}x its previous median)")
    return status


if __name__ == "__main__":
    sys.exit(main())
