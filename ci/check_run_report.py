#!/usr/bin/env python3
"""Validate a run_report.json against the coordinator's printed summary.

Usage: check_run_report.py REPORT SUMMARY_LOG [TRACE_JSONL ...]

Checks, in order:
  1. REPORT parses as JSON and carries the expected top-level layout,
     including the run id stamp introduced with report version 2 (version
     4 drops the solver's `model_cache_hits`; version 5, the current one,
     adds `totals.testcase_digest`).
  2. The aggregate path count in the report equals the "total paths:"
     line the coordinator printed (SUMMARY_LOG), and the report's
     `testcase_digest` (16 hex digits) equals the printed "testcase digest:"
     line — the machine-readable artifact and the human-readable summary
     must never drift apart.
  3. The per-worker path counts re-derive the aggregate.
  4. Every worker entry carries its piggybacked histogram snapshots
     (solver-query latency always; quantum durations for any worker
     that executed), and the timeline is present.
  5. The solver counters, per worker and aggregated, count per public
     query: query-cache hits never exceed queries (a query answered from several
     independent constraint groups is still one hit at most), and every
     query ended sat, unsat or unknown.
  6. The time a worker spent inside its scheduler (`schedule_us`, recorded
     per quantum) never exceeds the time it spent in quanta (`quantum_us`).
  7. The fork / retire bucket: `forks` (sibling states created) and
     `retire_us` (accounting and freeing completed paths) are recorded once
     per quantum, retiring never takes longer than the quanta it happens
     in, and an exhausted run forked at least `paths - 1` times over all
     its workers (every completed path but the first began as a fork's
     sibling on some worker).
  8. The solver latency histogram splits by who answered: per worker,
     `solver_probe_us` (query cache, or no lookup needed)
     and `solver_search_us` (a search ran) add up to `solver_query_us` in
     both `count` and `sum`, and the count is the worker's `solver.queries`.
  9. The idle bucket: every worker records `idle_us` (time its service loop
     slept with no work, one sample per status report), and per worker
     `idle_us.sum + quantum_us.sum` stays within 5 % of the run's
     `elapsed_secs` — a worker is never asleep and in a quantum at once.
 10. Every extra TRACE_JSONL file is valid JSON line by line.

Exits non-zero with a diagnostic on the first violation.
"""

import json
import re
import sys


def fail(msg):
    print(f"check_run_report: FAIL: {msg}")
    sys.exit(1)


def check_solver(where, solver):
    hits = solver["query_cache_hits"]
    if hits > solver["queries"]:
        fail(f"{where}: {hits} solver cache hits on {solver['queries']} queries")
    outcomes = solver["sat"] + solver["unsat"] + solver["unknowns"]
    if outcomes != solver["queries"]:
        fail(f"{where}: {outcomes} solver outcomes for {solver['queries']} queries")


def main():
    if len(sys.argv) < 3:
        fail("usage: check_run_report.py REPORT SUMMARY_LOG [TRACE_JSONL ...]")
    report_path, log_path, trace_paths = sys.argv[1], sys.argv[2], sys.argv[3:]

    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{report_path} is not readable JSON: {e}")

    for key in ("version", "run", "totals", "solver", "workers", "timeline", "metrics"):
        if key not in report:
            fail(f"report is missing the {key!r} key")
    if report["version"] < 5:
        fail(f"report version {report['version']} predates the test-case digest")
    if not isinstance(report["run"], int) or report["run"] <= 0:
        fail(f"report carries a bad run id: {report['run']!r}")

    with open(log_path) as f:
        log = f.read()
    m = re.search(r"total paths:\s+(\d+)", log)
    if not m:
        fail(f"no 'total paths:' line in {log_path}")
    printed = int(m.group(1))

    reported = report["totals"]["paths_completed"]
    if reported != printed:
        fail(f"report says {reported} paths, coordinator printed {printed}")

    digest = report["totals"].get("testcase_digest")
    if not isinstance(digest, str) or not re.fullmatch(r"[0-9a-f]{16}", digest):
        fail(f"report carries a bad testcase_digest: {digest!r}")
    m = re.search(r"testcase digest:\s+(\S+)", log)
    if not m:
        fail(f"no 'testcase digest:' line in {log_path}")
    if m.group(1) != digest:
        fail(f"report says testcase digest {digest}, coordinator printed {m.group(1)}")

    workers = report["workers"]
    if not workers:
        fail("report has no worker entries")
    per_worker = sum(w["paths_completed"] for w in workers)
    if per_worker != printed:
        fail(f"per-worker paths sum to {per_worker}, summary says {printed}")

    quantum_count = 0
    forks = 0
    for w in workers:
        histograms = w["metrics"]["histograms"]
        if "solver_query_us" not in histograms:
            fail(f"worker {w['index']} lacks the solver_query_us histogram")
        # Every query is answered either without a search (probe) or by one.
        query, probe, search = (
            histograms.get(name, {"count": 0, "sum": 0})
            for name in ("solver_query_us", "solver_probe_us", "solver_search_us")
        )
        for field in ("count", "sum"):
            if probe[field] + search[field] != query[field]:
                fail(
                    f"worker {w['index']}: solver_probe_us.{field} + solver_search_us.{field} "
                    f"= {probe[field] + search[field]}, solver_query_us.{field} = {query[field]}"
                )
        if query["count"] != w["solver"]["queries"]:
            fail(
                f"worker {w['index']}: {query['count']} query latencies recorded "
                f"for {w['solver']['queries']} solver queries"
            )
        quantum = histograms.get("quantum_us", {})
        quantum_count += quantum.get("count", 0)
        for name in ("schedule_us", "forks", "retire_us"):
            if histograms.get(name, {}).get("count", 0) != quantum.get("count", 0):
                fail(f"worker {w['index']}: {name} is not recorded once per quantum")
        for name in ("schedule_us", "retire_us"):
            spent = histograms.get(name, {}).get("sum", 0)
            if spent > quantum.get("sum", 0):
                fail(
                    f"worker {w['index']}: {name} sums to {spent} us, "
                    f"more than the {quantum['sum']} us of quanta it is part of"
                )
        forks += histograms.get("forks", {}).get("sum", 0)
        if "idle_us" not in histograms:
            fail(f"worker {w['index']} lacks the idle_us histogram")
        busy_or_idle = histograms["idle_us"]["sum"] + quantum.get("sum", 0)
        budget = 1.05 * report["elapsed_secs"] * 1e6
        if busy_or_idle > budget:
            fail(
                f"worker {w['index']}: idle_us.sum + quantum_us.sum = {busy_or_idle} us, "
                f"more than 1.05 x the run's {report['elapsed_secs']} s"
            )
    if quantum_count == 0:
        fail("no worker recorded a quantum duration")
    if report.get("exhausted") and forks < printed - 1:
        fail(f"an exhausted run of {printed} paths reports only {forks} forks")

    check_solver("cluster", report["solver"])
    for w in workers:
        check_solver(f"worker {w['index']}", w["solver"])

    if not isinstance(report["timeline"], list):
        fail("timeline is not an array")

    for path in trace_paths:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path}:{lineno} is not valid JSON: {e}")

    print(
        f"check_run_report: OK ({printed} paths, {len(workers)} workers, "
        f"{len(report['timeline'])} timeline samples, "
        f"{len(trace_paths)} event logs)"
    )


if __name__ == "__main__":
    main()
