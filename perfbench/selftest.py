#!/usr/bin/env python3
"""Self-test of the benchmark in its tiny-length smoke mode.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  - run.py's workloads and metric tables match BENCHMARK.json;
  - every workload emits every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1), with BENCHMARK.json's units, and every
    name is spelled [A-Za-z0-9_.-]+;
  - the correctness gate passes a right expected value and counts a
    deliberately wrong one as a failed round.
Exits 0 when all checks pass.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def smoke(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke",
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        return proc.returncode, json.loads(last)
    except json.JSONDecodeError:
        return proc.returncode, {"stdout": proc.stdout[-2000:],
                                 "stderr": proc.stderr[-2000:]}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads == run.py workloads")
    for table, key in ((run.END_TO_END, "end_to_end"),
                       (run.PER_LAYER, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == table, f"BENCHMARK.json {key} == run.py table")
    for name in names + list(run.END_TO_END) + list(run.PER_LAYER):
        check(bool(NAME.match(name)), f"name spelling: {name}")

    for wl in names:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            rc, res = smoke(wl, trace)
            metrics = res.get("metrics", {})
            check(rc == 0 and res.get("correct") is True
                  and res.get("failed") == 0,
                  f"{wl} trace={trace}: correct, no failed round")
            check(sorted(metrics) == sorted(table) and all(
                metrics[k]["unit"] == u and
                isinstance(metrics[k]["value"], (int, float))
                for k, u in table.items() if k in metrics),
                f"{wl} trace={trace}: every metric emitted with its unit")

    # The gate: a right expected value passes, a wrong one is caught.
    result = json.loads((run.WORK / "out" /
                         "result-mesh64_warm-seed1-trace0.json").read_text())
    sig = {k: result["rounds"][0][k] for k in ("digest", "received",
                                               "latency_sum")}
    key = run.expected_key("mesh64", run.SMOKE_CYCLES["mesh64"])
    path = run.WORK / "selftest-expected.json"
    for label, entry, want_ok in (
            ("right", sig, True),
            ("wrong", dict(sig, received=sig["received"] + 1), False)):
        path.write_text(json.dumps({"seed": 1, "results": {key: entry}}))
        rc, res = smoke("mesh64_warm", 0, "--expected", str(path))
        caught = res.get("correct") is False and res.get("failed", 0) >= 1
        check(rc == 0 and (res.get("correct") is True if want_ok else caught),
              f"{label} expected value is "
              f"{'accepted' if want_ok else 'counted as a failed round'}")

    print("selftest: " + ("ok" if not failures else
                          f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
