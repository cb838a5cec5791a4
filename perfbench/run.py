"""cuspdim benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts one workload process
(perfbench/worker.py), which imports cuspdim from src/, generates the
seeded inputs, runs one untimed warm-up op per op type and then measures;
it also times the set-up of fresh processes between its passes.  Prints
the result digest and checks on one line, and as the last line one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
Exits non-zero without a result when the checkout has no src/cuspdim.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170
# largest share of traced op time that no cuspdim layer may cover; beyond it the
# layers' self times no longer account for the op time and the per-layer table misleads
UNTRACED_LIMIT = 0.05


def run_worker(args):
    env = dict(os.environ)
    # one pool of --threads 2 is the only parallelism; git's repository search stops at the checkout
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t-spawn", repr(time.monotonic())]
    # a session of its own, so that a timeout also ends the set-up processes the worker starts
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"workload process ran over {TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "cuspdim" / "__init__.py").is_file():
        print(f"error: no src/cuspdim under {ROOT}; run from a cuspdim checkout", file=sys.stderr)
        return 2

    res = run_worker(args)
    correct = res["failed"] == 0 and res["passes_agree"] and not res["warmup_failures"]
    info = {"digest": res["digest"], "passes_agree": res["passes_agree"], "warmup_failures": res["warmup_failures"],
            "failure_reasons": res["reasons"], "ops_per_run": res["attempted"], "setup_samples_s": res["setup_s"]}
    if args.trace:
        correct &= res.get("threads_invariant", True) and res["untraced_frac"] <= UNTRACED_LIMIT
        info.update(threads_invariant=res.get("threads_invariant"), untraced_frac=res["untraced_frac"])
        units = {spec["name"]: spec["unit"] for spec in metrics.per_layer_spec()}
        values = {name: (v, units[name]) for name, v in res["per_layer"].items()}
    else:
        values = metrics.end_to_end(res["latencies"], res["setup_s"], res["peak_rss_kb"])
    print(json.dumps(info))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
