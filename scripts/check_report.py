#!/usr/bin/env python3
"""Validate placer3d flight-recorder artifacts (stdlib only).

Checks a run report (report.json, schema placer3d.run_report v1-v2; v2
adds p50/p95/p99 quantile fields to metrics histograms) and, optionally, a
Chrome trace-event file against the same rules the C++ side enforces
(src/obs/report.cpp: ValidateRunReport / ValidateChromeTrace).
With --batch, checks a serve-engine batch report (placer3d.batch_report v1,
src/serve/batch.cpp: ValidateBatchReport) instead: the engine counter
block, the FEA-cache counters, and every embedded per-job run report.
Used by the CI observability and serve smoke jobs; exits non-zero with a
one-line reason on the first violation.

Usage:
  check_report.py REPORT.json [--trace TRACE.json] [--min-phases N]
  check_report.py BATCH.json --batch [--min-ok N] [--min-phases N]
"""

import argparse
import json
import sys

PHASE_NUM_KEYS = ("wl_m", "ilv_cost_m", "thermal_cost_m", "total_m",
                  "ilv", "commits", "t_s")


def fail(msg):
    print(f"check_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fea_fields(qor):
    """qor.fea_solves and qor.fea_cg_iters are counts."""
    for key in ("fea_solves", "fea_cg_iters"):
        value = qor.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(f"qor.{key} missing or not a non-negative integer")


def check_report(doc):
    if not isinstance(doc, dict):
        fail("report root is not an object")
    if doc.get("schema") != "placer3d.run_report":
        fail(f"schema is {doc.get('schema')!r}, want 'placer3d.run_report'")
    version = doc.get("version")
    if version not in (1, 2):
        fail(f"version is {version!r}, want 1 or 2")
    for key, kind in (("run", dict), ("params", dict), ("phases", list),
                      ("qor", dict), ("timings", dict)):
        if not isinstance(doc.get(key), kind):
            fail(f"'{key}' missing or not a {kind.__name__}")
    run = doc["run"]
    for key in ("circuit", "cells", "nets", "pins"):
        if key not in run:
            fail(f"run.{key} missing")
    check_fea_fields(doc["qor"])
    phases = doc["phases"]
    for i, phase in enumerate(phases):
        if not isinstance(phase, dict):
            fail(f"phases[{i}] is not an object")
        if not phase.get("phase"):
            fail(f"phases[{i}].phase missing or empty")
        for key in PHASE_NUM_KEYS:
            if not isinstance(phase.get(key), (int, float)):
                fail(f"phases[{i}].{key} missing or not a number")
        total = phase["wl_m"] + phase["ilv_cost_m"] + phase["thermal_cost_m"]
        if abs(total - phase["total_m"]) > 1e-6 * abs(phase["total_m"]) + 1e-9:
            fail(f"phases[{i}] components sum to {total}, "
                 f"total_m is {phase['total_m']}")
    metrics = doc.get("metrics")
    if metrics is not None and metrics:
        for key in ("counters", "gauges", "histograms", "series"):
            if not isinstance(metrics.get(key), dict):
                fail(f"metrics.{key} missing or not an object")
        if version >= 2:
            # v2: every histogram snapshot carries the quantile summary.
            for name, hist in metrics["histograms"].items():
                if not isinstance(hist, dict):
                    fail(f"metrics.histograms[{name!r}] is not an object")
                for key in ("count", "sum", "min", "max", "p50", "p95",
                            "p99"):
                    if not isinstance(hist.get(key), (int, float)) \
                            or isinstance(hist.get(key), bool):
                        fail(f"metrics.histograms[{name!r}].{key} missing "
                             f"or not a number (required in v2)")
    return len(phases)


def check_batch(doc, min_phases):
    if not isinstance(doc, dict):
        fail("batch report root is not an object")
    if doc.get("schema") != "placer3d.batch_report":
        fail(f"schema is {doc.get('schema')!r}, want 'placer3d.batch_report'")
    if doc.get("version") != 1:
        fail(f"version is {doc.get('version')!r}, want 1")

    engine = doc.get("engine")
    if not isinstance(engine, dict):
        fail("'engine' missing or not an object")
    for key in ("workers", "thread_budget", "jobs", "completed", "cancelled",
                "failed"):
        if not isinstance(engine.get(key), (int, float)) \
                or isinstance(engine.get(key), bool):
            fail(f"engine.{key} missing or not a number")
    # Additive v1 field (watchdog): absent pre-watchdog, numeric if present.
    if "stalled" in engine and (not isinstance(engine["stalled"], (int, float))
                                or isinstance(engine["stalled"], bool)):
        fail("engine.stalled present but not a number")
    cache = engine.get("fea_cache")
    if not isinstance(cache, dict):
        fail("engine.fea_cache missing or not an object")
    for key in ("hits", "misses", "evictions"):
        if not isinstance(cache.get(key), (int, float)) \
                or isinstance(cache.get(key), bool):
            fail(f"engine.fea_cache.{key} missing or not a number")

    jobs = doc.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        fail("'jobs' missing, not a list, or empty")
    if len(jobs) != engine["jobs"]:
        fail(f"engine.jobs is {engine['jobs']}, "
             f"but the jobs array has {len(jobs)} entries")
    counts = {"ok": 0, "cancelled": 0, "failed": 0}
    for i, job in enumerate(jobs):
        if not isinstance(job, dict):
            fail(f"jobs[{i}] is not an object")
        if not job.get("name"):
            fail(f"jobs[{i}].name missing or empty")
        status = job.get("status")
        if status not in counts:
            fail(f"jobs[{i}].status is {status!r}")
        counts[status] += 1
        if not isinstance(job.get("wall_s"), (int, float)):
            fail(f"jobs[{i}].wall_s missing or not a number")
        if "stalled" in job and not isinstance(job["stalled"], bool):
            fail(f"jobs[{i}].stalled present but not a boolean")
        if status == "ok":
            if "report" not in job:
                fail(f"jobs[{i}] is ok but has no embedded run report")
            num_phases = check_report(job["report"])
            if num_phases < min_phases:
                fail(f"jobs[{i}] run report has {num_phases} phase samples, "
                     f"want >= {min_phases}")
        elif not job.get("message"):
            fail(f"jobs[{i}] is {status} but carries no message")
    for status, key in (("ok", "completed"), ("cancelled", "cancelled"),
                        ("failed", "failed")):
        if counts[status] != engine[key]:
            fail(f"engine.{key} is {engine[key]}, "
                 f"but {counts[status]} jobs have status {status!r}")
    return counts


def check_trace(doc):
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        fail("trace has no 'traceEvents' array")
    spans = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                fail(f"traceEvents[{i}].{key} missing")
        if event["ph"] == "X":
            spans += 1
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    fail(f"traceEvents[{i}].{key} missing on an 'X' span")
    if spans == 0:
        fail("trace contains no 'X' (complete-span) events")
    return len(events), spans


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="report.json from placer3d_cli --metrics")
    parser.add_argument("--trace", help="trace.json from placer3d_cli --trace")
    parser.add_argument("--batch", action="store_true",
                        help="treat the input as a serve-engine batch report")
    parser.add_argument("--min-ok", type=int, default=1,
                        help="with --batch: minimum jobs with status 'ok' "
                             "(default 1)")
    parser.add_argument("--min-phases", type=int, default=4,
                        help="minimum phase samples expected (default 4)")
    args = parser.parse_args()

    if args.batch:
        with open(args.report, encoding="utf-8") as f:
            counts = check_batch(json.load(f), args.min_phases)
        if counts["ok"] < args.min_ok:
            fail(f"batch has {counts['ok']} ok jobs, want >= {args.min_ok}")
        print(f"check_report: batch OK ({counts['ok']} ok, "
              f"{counts['cancelled']} cancelled, {counts['failed']} failed)")
        return

    with open(args.report, encoding="utf-8") as f:
        num_phases = check_report(json.load(f))
    if num_phases < args.min_phases:
        fail(f"report has {num_phases} phase samples, "
             f"want >= {args.min_phases}")
    print(f"check_report: report OK ({num_phases} phase samples)")

    if args.trace:
        with open(args.trace, encoding="utf-8") as f:
            num_events, num_spans = check_trace(json.load(f))
        print(f"check_report: trace OK ({num_events} events, "
              f"{num_spans} spans)")


if __name__ == "__main__":
    main()
