#!/usr/bin/env python3
"""CMTL end-to-end benchmark: what a user waits for, and where it goes.

Run from the repository root:

    python3 perfbench/run.py --workload mesh64_warm --seed 1 --seconds 12 --trace 0

It builds the CMTL libraries and the round runner (perfbench_cmtl) from
source into .bench_build/perfbench, then runs measured rounds of the
workload, each in a fresh process, until --seconds have passed and the
workload's minimum round count is met. Hand-written C++ reference rounds
(refcpp) are interleaved with the CMTL rounds.

--trace 0 prints the end-to-end metrics (medians over the rounds).
--trace 1 runs a traced round between two untraced ones instead and
prints the per-layer metrics of the traced round plus the tracing
overhead; its Chrome trace-event file lands in .bench_build/perfbench/out/.

Every round's simulated results are checked (see check_round); a round
that throws or fails a check counts in "failed", never dropped. The last
line of stdout is the JSON result. METRICS.md documents every metric.
"""

import argparse
import contextlib
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
BUILD = WORK / "build"
BINARY = BUILD / "perfbench_cmtl"
EXPECTED = HERE / "expected.json"

# Simulated cycles per round. mesh64_* share one length so their
# simulated statistics must be identical; it is about twice what the
# cold run needs to cross the tier swap (a 20-30 s compile at ~2k
# bytecode cycles/s swaps near cycle 50k).
CYCLES = {"mesh64": 100_000, "mesh256": 2_000}
SMOKE_CYCLES = {"mesh64": 256, "mesh256": 64}

# cache: "cold" = fresh private JIT cache per round, deleted after;
# "warm" = a private cache filled by an untimed prepare step.
WORKLOADS = {
    "mesh64_cold": {"design": "mesh64", "cache": "cold", "min_rounds": 1,
                    "ref_nodes": 64, "ref_cycles": 40_000, "ref_per_round": 3},
    "mesh64_warm": {"design": "mesh64", "cache": "warm", "min_rounds": 3,
                    "ref_nodes": 64, "ref_cycles": 40_000, "ref_per_round": 1},
    "mesh256_par2": {"design": "mesh256", "cache": "none", "min_rounds": 3,
                     "ref_nodes": 256, "ref_cycles": 10_000, "ref_per_round": 1},
}

# Second backend each design's stored expected results were produced
# on (the measured backends are cpp-design and bytecode at 2 threads).
CALIBRATION_BACKEND = {
    "mesh64": ["--backend", "bytecode", "--threads", "1"],
    "mesh256": ["--backend", "optinterp", "--threads", "1"],
}

END_TO_END = {
    "setup_s": "s",
    "time_to_result_s": "s",
    "cycles_per_s": "cycles/s",
    "peak_rss_mb": "MiB",
    "handcpp_gap": "ratio",
}
PER_LAYER = {
    "model.elaborate_s": "s",
    "partition.partition_s": "s",
    "partition.cut_tokens": "count",
    "partition.imbalance": "ratio",
    "ir_bytecode.tier0_cycles_per_s": "cycles/s",
    "ir_cpp.codegen_s": "s",
    "ir_cpp.tu_bytes": "bytes",
    "jit_cpp.compile_s": "s",
    "jit_cpp.wrap_s": "s",
    "jit_cpp.cache_hit": "count",
    "jit_cpp.time_to_native_s": "s",
    "jit_cpp.swap_cycle": "cycle",
    "sim.settle_s_per_kcycle": "s/kcycle",
    "sim.tick_s_per_kcycle": "s/kcycle",
    "sim.flop_s_per_kcycle": "s/kcycle",
    "sim.lambda_s_per_kcycle": "s/kcycle",
    "psim.barrier_s_per_kcycle": "s/kcycle",
    "psim.island_compute_s_per_kcycle": "s/kcycle",
    "psim.boundary_bytes_per_cycle": "bytes/cycle",
    "psim.gated_supersteps": "count",
    "refcpp.cycles_per_s": "cycles/s",
    "trace.overhead_frac": "fraction",
}

SETUP_SAMPLES = 7        # set-up timings per run (extra set-up-only rounds)
ROUND_TIMEOUT_S = 120    # one process; a cold round takes ~25 s
RUN_DEADLINE_S = 150     # start no round that could end after this


def child_env():
    """Environment for every child: compiler temporaries and any
    default-cache use stay inside the checkout, and the user's
    $CMTL_JIT_CACHE is never read or evicted."""
    env = dict(os.environ)
    env["TMPDIR"] = str(WORK / "tmp")
    env["CMTL_JIT_CACHE"] = str(WORK / "jit" / "default")
    return env


def become_subreaper():
    """Adopt orphaned descendants (the compiler of a stopped JIT), so
    stop_group() can wait for them to end."""
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0,
                                             0, 0)


def stop_group(proc):
    """Kill proc's process group and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for f in (proc.stdout, proc.stderr):
        if f:
            f.close()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def build():
    """Configure and build perfbench_cmtl (a no-op when up to date)."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    log = WORK / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j3", "--target", "perfbench_cmtl"],
    ]
    with open(log, "w") as f:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                env=child_env()).returncode
            if rc != 0:
                break
    if rc != 0:
        sys.stderr.write(log.read_text()[-3000:])
        raise SystemExit(f"build failed: {' '.join(cmd)}")


class Bench:
    """One benchmark invocation: build, prepare, rounds, checks."""

    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.design = self.spec["design"]
        self.cycles = (SMOKE_CYCLES if args.smoke else CYCLES)[self.design]
        self.expected = None if args.calibrate else self.load_expected()
        self.start = time.monotonic()
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = []
        self.reference = None  # first correct round's results
        self.ncold = 0
        self.samples = {}  # raw values behind the reported metrics

    # --- processes ----------------------------------------------------

    def run_binary(self, argv, timeout=ROUND_TIMEOUT_S, tmpdir=None,
                   first_line=False):
        """Run perfbench_cmtl; return its JSON line (or an error dict).

        The child runs in its own process group, stopped before this
        returns. With first_line, the group is stopped as soon as the
        child has printed its line: a set-up-only round leaves its
        background JIT compile running."""
        env = dict(self.env, TMPDIR=str(tmpdir)) if tmpdir else self.env
        proc = subprocess.Popen(
            [str(BINARY)] + argv, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        out, err = "", ""
        try:
            if first_line:
                if select.select([proc.stdout], [], [], timeout)[0]:
                    out = proc.stdout.readline()
            else:
                out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            err = f"timeout after {timeout} s"
        finally:
            stop_group(proc)
        lines = [l for l in out.splitlines() if l.startswith("{")]
        if not lines:
            return {"error": f"exit {proc.returncode}: {err.strip()[-400:]}"}
        res = json.loads(lines[-1])
        if proc.returncode != 0 and not first_line and "error" not in res:
            res["error"] = f"exit {proc.returncode}"
        return res

    # --- rounds -------------------------------------------------------

    def cache_dir(self):
        return WORK / "jit" / self.args.workload

    def round_argv(self, cache, cycles=None):
        return ["round", "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--cache", str(cache),
                "--cycles", str(cycles or self.cycles)]

    def prepare(self):
        """Fill the workload's private JIT cache (untimed). The compiled
        design does not depend on the seed or the length."""
        if self.spec["cache"] != "warm":
            return
        argv = self.round_argv(self.cache_dir(), cycles=1) + ["--tiered", "0"]
        res = self.run_binary(argv, timeout=600)
        if "error" in res:
            raise SystemExit(f"prepare failed: {res['error']}")

    @contextlib.contextmanager
    def round_cache(self):
        """Yield (JIT cache dir, TMPDIR override) for one process. A cold
        workload gets a fresh directory, also its compiler's TMPDIR,
        deleted afterwards."""
        if self.spec["cache"] != "cold":
            yield self.cache_dir(), None
            return
        self.ncold += 1
        d = WORK / "jit" / f"cold-{os.getpid()}-{self.ncold}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        try:
            yield d, d
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def measured_round(self, trace_path=None):
        """One timed round, checked and counted."""
        with self.round_cache() as (cache, tmpdir):
            argv = self.round_argv(cache)
            if trace_path:
                argv += ["--trace", str(trace_path)]
            res = self.run_binary(argv, tmpdir=tmpdir)
        self.attempted += 1
        problems = self.check_round(res)
        res["problems"] = problems
        if problems:
            self.failed += 1
            self.problems += problems
        self.rounds.append(res)
        return res

    def setup_round(self):
        """Set-up only: construction until the simulator is ready."""
        with self.round_cache() as (cache, tmpdir):
            res = self.run_binary(
                self.round_argv(cache) + ["--setup-only", "1"],
                tmpdir=tmpdir, first_line=True)
        return res.get("setup_s")

    def ref_rounds(self):
        """Hand-written C++ reference rates, interleaved with rounds."""
        rates = []
        for _ in range(self.spec["ref_per_round"]):
            res = self.run_binary(
                ["refcpp", "--nodes", str(self.spec["ref_nodes"]),
                 "--seed", str(self.args.seed),
                 "--cycles", str(self.spec["ref_cycles"] //
                                 (20 if self.args.smoke else 1))])
            if "cycles_per_s" in res:
                rates.append(res["cycles_per_s"])
        return rates

    # --- correctness --------------------------------------------------

    def load_expected(self):
        """Stored results for this design, length and seed, if any."""
        path = Path(self.args.expected) if self.args.expected else EXPECTED
        table = json.loads(path.read_text())
        if table["seed"] != self.args.seed:
            return None
        return table["results"].get(expected_key(self.design, self.cycles))

    def signature(self, res):
        keys = ("digest", "generated", "injected", "received",
                "latency_sum", "in_flight", "queued", "cycles")
        return {k: res[k] for k in keys if k in res}

    def check_round(self, res):
        """Problems with one round's simulated results ([] = correct)."""
        if "error" in res:
            return [f"round error: {res['error']}"]
        p = []
        if res["cycles"] != self.cycles:
            p.append(f"ran {res['cycles']} cycles")
        # Message conservation.
        if res["generated"] != res["injected"] + res["queued"]:
            p.append("generated != injected + queued")
        if res["injected"] != res["received"] + res["in_flight"]:
            p.append("injected != received + in flight")
        sig = self.signature(res)
        if self.expected is not None:
            for k, v in self.expected.items():
                if k in sig and sig[k] != v:
                    p.append(f"{k} = {sig[k]}, expected {v}")
        if self.reference is None:
            if not p:
                self.reference = sig
        elif sig != self.reference:
            p.append("differs from an earlier round of this run")
        return p

    # --- modes --------------------------------------------------------

    def time_left(self, needed):
        return time.monotonic() - self.start + needed < RUN_DEADLINE_S

    def timed(self):
        """Rounds until --seconds and min_rounds; end-to-end metrics.

        Reference rounds sandwich every CMTL round, so each round's
        hand-C++ gap divides rates taken under the same host load."""
        setups, gaps = [], []
        ref_before = self.ref_rounds()
        ref_rates = list(ref_before)
        t_measure = time.monotonic()
        min_rounds = 1 if self.args.smoke else self.spec["min_rounds"]
        last = 0.0
        while True:
            n = len(self.rounds)
            if n >= min_rounds and \
                    time.monotonic() - t_measure >= self.args.seconds:
                break
            if n >= 1 and not self.time_left(last * 1.5):
                break
            t = time.monotonic()
            res = self.measured_round()
            last = time.monotonic() - t
            ref_after = self.ref_rounds()
            ref_rates += ref_after
            if not res["problems"]:
                setups.append(res["setup_s"])
            if not res["problems"] and ref_before and ref_after:
                gaps.append(statistics.median(ref_before + ref_after) /
                            round_rate(res))
            ref_before = ref_after
            # Set-up is short next to a round: sample it more often,
            # each in its own process.
            s = self.setup_round()
            if s is not None:
                setups.append(s)
        while setups and len(setups) < SETUP_SAMPLES:
            s = self.setup_round()
            if s is None:
                break
            setups.append(s)

        ok = [r for r in self.rounds if not r["problems"]]
        if not ok or not setups or not gaps:
            return {}
        values = {
            "setup_s": setups,
            "time_to_result_s": [r["time_to_result_s"] for r in ok],
            "cycles_per_s": [round_rate(r) for r in ok],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in ok],
            "handcpp_gap": gaps,
            "refcpp_cycles_per_s": ref_rates,
        }
        self.samples = values
        return {k: statistics.median(v) for k, v in values.items()
                if k in END_TO_END}

    def traced(self):
        """A traced round between two untraced ones; per-layer metrics."""
        out_dir = WORK / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = out_dir / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        before = self.measured_round()
        traced = self.measured_round(trace_path=trace)
        after = self.measured_round()
        refs = self.ref_rounds()
        if self.failed or not refs:
            return {}
        self.samples = {"trace_file": str(trace.relative_to(ROOT))}
        plain = (before["time_to_result_s"] + after["time_to_result_s"]) / 2
        layers = dict(traced["layers"])
        layers["refcpp.cycles_per_s"] = statistics.median(refs)
        layers["trace.overhead_frac"] = \
            (traced["time_to_result_s"] - plain) / plain
        return layers


def expected_key(design, cycles):
    return f"{design}@{cycles}"


def round_rate(res):
    """Workload cycles / (time_to_result_s - setup_s) of one round."""
    return res["cycles"] / (res["time_to_result_s"] - res["setup_s"])


def git_commit():
    """HEAD of the checkout if it is a git work tree, read from files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(xs):
    if len(xs) < 2:
        return {"n": len(xs), "median": xs[0] if xs else None}
    q = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "min": min(xs), "q1": q[0],
            "median": statistics.median(xs), "q3": q[2], "max": max(xs)}


def calibrate(bench_args):
    """Produce expected.json on the second backend (default seed)."""
    table = {"seed": bench_args.seed, "results": {}}
    for design, cycles in CYCLES.items():
        wl = next(w for w, s in WORKLOADS.items() if s["design"] == design)
        b = Bench(argparse.Namespace(**dict(vars(bench_args), workload=wl)))
        argv = b.round_argv(WORK / "jit" / "calibrate")
        res = b.run_binary(argv + CALIBRATION_BACKEND[design], timeout=3600)
        problems = b.check_round(res)
        if problems:
            raise SystemExit(f"calibration of {design}: {problems}")
        entry = b.signature(res)
        entry["backend"] = f"{res['backend']} threads={res['threads']}"
        table["results"][expected_key(design, cycles)] = entry
        print(f"{key}: {entry}", flush=True)
    EXPECTED.write_text(json.dumps(table, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=False)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny lengths, one round (self-test)")
    ap.add_argument("--expected", help="expected-results file override")
    ap.add_argument("--calibrate", action="store_true",
                    help="regenerate expected.json on a second backend")
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2 ** 63:
        ap.error("--seed must be in [0, 2^63)")
    if not args.calibrate and not args.workload:
        ap.error("--workload is required")

    become_subreaper()
    build()
    if args.calibrate:
        calibrate(args)
        return 0

    bench = Bench(args)
    bench.prepare()
    provenance = bench.run_binary(
        ["provenance", "--cache", str(WORK / "jit" / "provenance")])
    provenance["git_commit"] = git_commit()
    print("provenance: " + json.dumps(provenance), flush=True)

    values = bench.traced() if args.trace else bench.timed()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in units.items() if k in values}
    correct = bench.failed == 0 and len(metrics) == len(units)
    if len(metrics) != len(units) and not bench.problems:
        bench.problems.append("no correct round to report metrics from")

    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "smoke": args.smoke,
        "provenance": provenance, "metrics": metrics,
        "samples": {k: quartiles(v) if isinstance(v, list) else v
                    for k, v in bench.samples.items()},
        "rounds": bench.rounds, "problems": bench.problems,
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1) + "\n")
    for p in bench.problems:
        print("FAILED: " + p, flush=True)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
