#!/usr/bin/env python3
"""Drive the run-service NDJSON front door end to end for the CI smoke.

Usage: frontdoor_client.py HOST:PORT TARGET [TARGET ...]

Submits every TARGET as its own run over one connection, polls the registry
until all of them report "done", fetches each run's results, and shuts the
service down. For every run it writes frontdoor-run-<id>-summary.txt with a
"total paths:" and a "testcase digest:" line in the coordinator's summary
format, so
check_run_report.py can cross-check the per-run run-<id>.json report the
service wrote against what the front door returned.

Exits non-zero with a diagnostic on the first protocol violation.
"""

import json
import socket
import sys
import time

POLL_INTERVAL = 0.2
DEADLINE_SECS = 300


def fail(msg):
    print(f"frontdoor_client: FAIL: {msg}")
    sys.exit(1)


class Client:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=DEADLINE_SECS)
        self.file = self.sock.makefile("rw")

    def command(self, **payload):
        self.file.write(json.dumps(payload) + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            fail(f"connection closed mid-command: {payload}")
        reply = json.loads(line)
        if "ok" not in reply:
            fail(f"reply to {payload} lacks 'ok': {reply}")
        return reply

    def expect_ok(self, **payload):
        reply = self.command(**payload)
        if not reply["ok"]:
            fail(f"{payload} failed: {reply.get('error')}")
        return reply


def main():
    if len(sys.argv) < 3:
        fail("usage: frontdoor_client.py HOST:PORT TARGET [TARGET ...]")
    host, port = sys.argv[1].rsplit(":", 1)
    targets = sys.argv[2:]
    client = Client(host, int(port))

    runs = {}  # run id -> target name
    for target in targets:
        reply = client.expect_ok(cmd="submit", target=target)
        run = reply.get("run")
        if not isinstance(run, int) or run <= 0:
            fail(f"submit returned a bad run id: {reply}")
        runs[run] = target
        print(f"frontdoor_client: submitted {target} as run {run}")
    if len(runs) != len(targets):
        fail("duplicate run ids across submissions")

    deadline = time.monotonic() + DEADLINE_SECS
    while True:
        listed = {r["id"]: r for r in client.expect_ok(cmd="list")["runs"]}
        missing = [run for run in runs if run not in listed]
        if missing:
            fail(f"submitted runs vanished from the registry: {missing}")
        if all(listed[run]["state"] == "done" for run in runs):
            break
        if time.monotonic() > deadline:
            states = {run: listed[run]["state"] for run in runs}
            fail(f"runs did not finish within {DEADLINE_SECS}s: {states}")
        time.sleep(POLL_INTERVAL)

    for run, target in runs.items():
        status = client.expect_ok(cmd="status", run=run)["run"]
        if status["cancelled"]:
            fail(f"run {run} ({target}) was cancelled")
        results = client.expect_ok(cmd="results", run=run)["results"]
        if not results["exhausted"]:
            fail(f"run {run} ({target}) did not exhaust its tree")
        if results["paths_completed"] != status["paths_completed"]:
            fail(
                f"run {run}: results say {results['paths_completed']} paths, "
                f"status says {status['paths_completed']}"
            )
        with open(f"frontdoor-run-{run}-summary.txt", "w") as f:
            f.write(f"target:            {target}\n")
            f.write(f"total paths:       {results['paths_completed']}\n")
            f.write(f"testcase digest:   {results['testcase_digest']}\n")
            f.write(f"coverage:          {100.0 * results['coverage']:.1f}%\n")
        print(
            f"frontdoor_client: run {run} ({target}) done, "
            f"{results['paths_completed']} paths, "
            f"{100.0 * results['coverage']:.1f}% coverage"
        )

    bad = client.command(cmd="status", run=999999)
    if bad["ok"]:
        fail("status of an unknown run succeeded")

    client.expect_ok(cmd="shutdown")
    print(f"frontdoor_client: OK ({len(runs)} runs served, service shut down)")


if __name__ == "__main__":
    main()
