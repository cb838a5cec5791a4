"""Write perfbench/record.json: machine, inputs and the layer -> metric -> workload table.

    python3 perfbench/record.py

BENCHMARK.json has a fixed set of keys, so what the benchmark ran on and
with which inputs is recorded here instead.  Re-run after changing the
workloads or moving to another machine.
"""

import collections
import json
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy

import metrics
import workloads

HERE = Path(__file__).resolve().parent

# largest array working set per workload, computed from array sizes (bytes moved are not measured)
WORKING_SETS = {
    "orbit_lattice": {"bytes": 6 * 8 * 3_269_018, "what": "bad/orbit at t_max = 15: record frontier over "
                      "q <= e^15 = 3.27e6, six float64 arrays of 26 MB"},
    "haar_mc": {"bytes": 2 * 16 * 8 * 65_536, "what": "one 2^16-sample chunk per worker thread, ~16 float64 "
                "arrays each (2 threads)"},
    "cover_dim": {"bytes": 250 * 650_000, "what": "cover at (c, r, t, k) = (0.05, 1.0, 2.25, 3): ~6.5e5 boxes "
                  "in the last sup_delta_flow_batch call, ~250 B of long-double/int64 arrays per box"},
}


def _cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        if kind != "Instruction":
            out[f"L{level}"] = (idx / "size").read_text().strip()
    return out


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _l3_bytes(caches):
    size = caches.get("L3", "0K")
    mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
    return int(size.rstrip("KM")) * mult


def record():
    caches = _cache_sizes()
    l3 = _l3_bytes(caches)
    inputs = {}
    for name, why in workloads.WORKLOADS.items():
        ops = workloads.generate(name, 1)
        ws = WORKING_SETS[name]
        inputs[name] = {
            "why": why,
            "ops_per_pass": dict(sorted(collections.Counter(op.type for op in ops).items())),
            "warmup_ops": [op.type for op in workloads.warmups(name, 1)],
            "largest_working_set_mb": round(ws["bytes"] / 2**20, 1),
            "largest_working_set_vs_l3": round(ws["bytes"] / l3, 2) if l3 else None,
            "largest_working_set": ws["what"],
        }
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "caches": caches,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "inputs": {
            "seed": "the --seed argument; op counts below are the same for every seed",
            "workloads": inputs,
        },
        "layers": [
            {"layer": layer, "stats": list(stats), "should_move": moves, "on": on, "unchanged_on": list(same)}
            for layer, stats, moves, on, same in metrics.LAYER_TABLE
        ],
    }


if __name__ == "__main__":
    (HERE / "record.json").write_text(json.dumps(record(), indent=2) + "\n")
