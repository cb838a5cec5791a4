"""One workload process: set-up, closed-loop passes over the op list, checks, trace.

Started by run.py; prints one JSON object as its last stdout line.  One
client: each op is sent when the previous one has returned.  A pass is
the workload's fixed op list; passes repeat until `--seconds` of op time
have been measured, at least MIN_PASSES passes and MIN_OPS ops have run.
Every pass must give the same result digest.  Between passes, fresh
processes started with --setup-only time the set-up again, so that
SETUPS samples spread over the whole run.  With --trace 1, untraced and
traced passes alternate (their wall-time ratio is the trace overhead),
and on haar_mc the threaded CLI ops are repeated at --threads 1, whose
reports must equal the --threads 2 ones.
"""

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import checks
import metrics
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
MIN_OPS = 100
MAX_REASONS = 5
# set-up samples per untraced run, this process's own included: import time alone
# varies by a fifth from one process to the next on a shared host
SETUPS = 8
SETUP_TIMEOUT_S = 60


def load_cuspdim():
    """Import cuspdim from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("cuspdim")
    if Path(pkg.__file__).resolve().parent != (src / "cuspdim").resolve():
        raise SystemExit(f"cuspdim imported from {pkg.__file__}, not from {src}")
    for mod in ("cli", "lattices", "flows", "haar", "rng", "covering"):
        importlib.import_module(f"cuspdim.{mod}")
    return pkg


class Runner:
    def __init__(self, cuspdim, workdir):
        self.cuspdim = cuspdim
        self.workdir = workdir
        self.paths = {}

    def materialize(self, ops):
        """Write each op's config file once, during set-up."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op.config is not None and id(op) not in self.paths:
                path = self.workdir / f"config-{len(self.paths)}.json"
                path.write_text(json.dumps(op.config))
                self.paths[id(op)] = path

    def execute(self, op):
        """(exit code, output text, None) or (None, "", reason) when the op raised."""
        try:
            code, text = workloads.execute(op, self.cuspdim, self.paths.get(id(op)))
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            return None, "", f"raised {e!r}"
        return code, text, None

    def check(self, op, code, text, raised):
        return raised or checks.check(op, code, text, self.cuspdim)


class Pass:
    def __init__(self):
        self.latencies = []
        self.reasons = []
        self.outputs = []
        self.failed = 0

    @property
    def wall(self):
        return sum(self.latencies)

    def digest(self):
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def run_pass(runner, ops, tracer=None):
    p = Pass()
    for k, op in enumerate(ops):
        t0 = perf_counter()
        if tracer is None:
            code, text, raised = runner.execute(op)
        else:
            with tracer.root(k):
                code, text, raised = runner.execute(op)
        p.latencies.append(perf_counter() - t0)
        reason = runner.check(op, code, text, raised)
        if reason:
            p.failed += 1
            if len(p.reasons) < MAX_REASONS:
                p.reasons.append(f"op {k} ({op.type}): {reason}")
        p.outputs.append(f"failed {k}" if reason else checks.canonical(op, text))
    return p


def thread_repeat(runner, ops, first_pass, tracer):
    """Re-run the threaded CLI ops at --threads 1 under the tracer; True when reports match."""
    same = True
    for k, op in enumerate(ops):
        if "--threads" not in op.args:
            continue
        with tracer.root(k):
            _, text, raised = runner.execute(workloads.with_threads(op, 1))
        drop = ("version", "config.threads")
        ref = first_pass.outputs[k]
        same &= not raised and ref.startswith("{") and checks.canonical(op, text, drop) == checks.canonical(op, ref, drop)
    return same


def time_setup(a):
    """{"setup_s", "warmup_failures"} of a fresh process of this workload that stops after set-up."""
    cmd = [sys.executable, __file__, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--t-spawn", repr(time.monotonic()), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() when the process was started")
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args(argv)

    cuspdim = load_cuspdim()
    ops = workloads.generate(a.workload, a.seed)
    warm = workloads.warmups(a.workload, a.seed)
    runner = Runner(cuspdim, OUT / f"{a.workload}-seed{a.seed}")
    runner.materialize(warm + ops)
    warm_fail = [r for r in (runner.check(op, *runner.execute(op)) for op in warm) if r]
    setup_s = time.monotonic() - a.t_spawn
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_failures": warm_fail}))
        return 0

    tracer = spans.Tracer() if a.trace else None
    setups = [{"setup_s": setup_s, "warmup_failures": warm_fail}]
    want = 1 if tracer else SETUPS
    plain, traced = [], []
    while True:
        plain.append(run_pass(runner, ops))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(runner, ops, tracer))
            finally:
                tracer.uninstall()
        done = plain + traced
        measured = sum(p.wall for p in done)
        # keep the set-up samples in step with the share of the run measured so far
        while len(setups) < min(want, 1 + int((want - 1) * measured / a.seconds)):
            setups.append(time_setup(a))
        if (measured >= a.seconds and len(plain) >= (2 if tracer else MIN_PASSES)
                and sum(len(p.latencies) for p in done) >= MIN_OPS):
            break

    digests = {p.digest() for p in done}
    result = {
        "setup_s": [x["setup_s"] for x in setups],
        "warmup_failures": [f for x in setups for f in x["warmup_failures"]],
        "attempted": sum(len(p.latencies) for p in done),
        "failed": sum(p.failed for p in done),
        "reasons": [r for p in done for r in p.reasons][:MAX_REASONS],
        "digest": done[0].digest(),
        "passes_agree": len(digests) == 1,
        "latencies": [p.latencies for p in plain],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        pass_spans = tracer.spans
        extra = {"trace.overhead_frac": statistics.median(p.wall for p in traced)
                 / statistics.median(p.wall for p in plain) - 1.0}
        layers = spans.layer_stats(pass_spans, len(traced))
        if a.workload == "haar_mc":
            repeat = spans.Tracer()
            repeat.install()
            try:
                result["threads_invariant"] = thread_repeat(runner, ops, traced[0], repeat)
            finally:
                repeat.uninstall()
            t1_busy = spans.layer_stats(repeat.spans, 1).get("rng.chunked_map", {}).get("busy_s", 0.0)
            extra["rng.chunked_map.speedup_1_to_nproc"] = t1_busy / layers["rng.chunked_map"]["busy_s"]
        result["untraced_frac"] = spans.untraced_frac(pass_spans)
        result["per_layer"] = metrics.per_layer_values(layers, extra)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{a.workload}-seed{a.seed}.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
