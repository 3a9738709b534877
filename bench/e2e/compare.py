#!/usr/bin/env python3
"""Compares, summarizes or validates bench_e2e result files (stdlib only).

  compare.py PARENT_DIR CHANGE_DIR   one row per workload and end-to-end
                                     metric: each side's median and
                                     quartiles, the change's win fraction,
                                     and a verdict
  compare.py --spread DIR            each metric's spread over the runs in
                                     DIR, as a share of its median, next to
                                     its bound
  compare.py --validate DIR          every result in DIR is correct and
                                     reports exactly the metrics and units
                                     BENCHMARK.json declares

A result is a <workload>.json (--trace 0) or <workload>.layers.json
(--trace 1) file written by `bench_e2e --out DIR`; DIR is searched
recursively, so the runs of one side sit in sub-directories (run01/,
run02/, ...). Runs pair by their path relative to DIR, so parent and change
runs that share a name and a seed form one pair; alternate which side runs
first. Bounds and directions come from BENCHMARK.json at the repository
root.

Verdicts, per workload and metric:
  improved    the change wins at least 90% of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range;
  unresolved  either side's spread (interquartile range over median) is
              wider than the bound, unless every change run beats every
              parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.
Exits 1 when a row is regressed (or, with --validate, a file is invalid).
"""

import json
import math
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_results(root):
    """{(workload, trace): {relative path: result}} for every result file."""
    root = pathlib.Path(root)
    results = {}
    for path in sorted(root.rglob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or "workload" not in doc:
            continue
        key = (doc["workload"], doc.get("trace", 0))
        results.setdefault(key, {})[str(path.relative_to(root))] = doc
    return results


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def values_of(runs, name):
    return [run["metrics"][name]["value"] for run in runs.values()]


def compare(benchmark, parent_dir, change_dir):
    parent = load_results(parent_dir)
    change = load_results(change_dir)
    regressed = 0
    header = (f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':<36} "
              f"{'change median [q1, q3]':<36} {'wins':>7}  verdict")
    print(header)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        p_runs = parent.get((workload, 0), {})
        c_runs = change.get((workload, 0), {})
        pairs = sorted(set(p_runs) & set(c_runs))
        if not pairs:
            print(f"{workload:<15} (no paired runs)")
            continue
        for metric in benchmark["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            p = values_of(p_runs, name)
            c = values_of(c_runs, name)
            wins = sum(is_better(c_runs[k]["metrics"][name]["value"],
                                 p_runs[k]["metrics"][name]["value"], better)
                       for k in pairs)
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            worse_by = (c_med - p_med) / abs(p_med) if p_med else 0.0
            if better == "higher":
                worse_by = -worse_by
            all_better = all(is_better(x, y, better) for x in c for y in p)
            if (wins >= 0.9 * len(pairs) and is_better(c_med, p_med, better)
                    and abs(c_med - p_med) > p_q3 - p_q1):
                verdict = "improved"
            elif max(spread(p), spread(c)) > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "unchanged"
            p_text = f"{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
            c_text = f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]"
            print(f"{workload:<15} {name:<12} {p_text:<36} {c_text:<36} "
                  f"{wins:>3}/{len(pairs):<3}  {verdict}")
    return 1 if regressed else 0


def report_spread(benchmark, root):
    results = load_results(root)
    print(f"{'workload':<15} {'metric':<12} {'runs':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs = results.get((workload, 0), {})
        if not runs:
            print(f"{workload:<15} (no runs)")
            continue
        for metric in benchmark["end_to_end"]:
            values = values_of(runs, metric["name"])
            q1, med, q3 = quartiles(values)
            print(f"{workload:<15} {metric['name']:<12} {len(values):>4} "
                  f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread(values):>8.2%} {metric['bound']:>6.1%}")
    return 0


def validate(benchmark, root):
    declared = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}
    results = load_results(root)
    errors = []
    for (workload, trace), runs in sorted(results.items()):
        want = {m["name"]: m["unit"] for m in declared[trace]}
        for path, doc in runs.items():
            if doc.get("correct") is not True or doc.get("failed") != 0:
                errors.append(f"{path}: not correct")
            if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
                errors.append(f"{path}: attempted must be a whole number >= 1")
            got = {name: m.get("unit") for name, m in doc.get("metrics", {}).items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                errors.append(f"{path}: missing {missing}, unexpected {extra}, "
                              f"wrong unit {units}")
            for name, m in doc.get("metrics", {}).items():
                value = m.get("value")
                if (not isinstance(value, (int, float)) or isinstance(value, bool)
                        or not math.isfinite(value)):
                    errors.append(f"{path}: {name} is not a finite number")
    workloads = {w for w, _ in results}
    for w in benchmark["workloads"]:
        if w["name"] not in workloads:
            errors.append(f"no results for workload {w['name']}")
    for error in errors:
        print(error)
    print(f"{sum(len(r) for r in results.values())} result files, "
          f"{len(errors)} problems")
    return 1 if errors else 0


def main(argv):
    benchmark = json.loads(BENCHMARK.read_text())
    if len(argv) == 3 and argv[1] == "--spread":
        return report_spread(benchmark, argv[2])
    if len(argv) == 3 and argv[1] == "--validate":
        return validate(benchmark, argv[2])
    if len(argv) == 3 and not argv[1].startswith("-"):
        return compare(benchmark, argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
