"""Metric definitions: end-to-end summaries and the per-layer table.

`LAYER_TABLE` is the single source for the per-layer metric names, which
end-to-end metric each should move and on which workload; `run.py`
reports them, `record.py` writes them into record.json, and the tests
check that BENCHMARK.json lists the same names.
"""

import math
import statistics

MIN_TAIL = 10

# (layer, stats, end-to-end metric it should move, workload, workloads where it should not move)
LAYER_TABLE = [
    ("cli.main", ("calls", "self_s"), "op_p50_ms", "orbit_lattice", ()),
    ("lattices.shortest_vector", ("calls", "busy_s", "p50_ms"), "op_p90_ms, wall_s", "orbit_lattice",
     ("haar_mc", "cover_dim")),
    ("lattices.shortest_vector_weighted", ("calls", "busy_s", "p50_ms"), "op_p90_ms, wall_s", "orbit_lattice",
     ("haar_mc", "cover_dim")),
    ("lattices.make_lattice", ("calls", "self_s"), "wall_s", "orbit_lattice", ("haar_mc", "cover_dim")),
    ("flows.orbit_profile", ("calls", "self_s", "p50_ms", "t_samples"), "op_p50_ms, peak_rss_mb", "orbit_lattice",
     ("haar_mc", "cover_dim")),
    ("flows.direct_bad_constant", ("calls", "busy_s", "q_evaluated"), "op_p50_ms", "orbit_lattice",
     ("haar_mc", "cover_dim")),
    ("haar.sample_batch", ("busy_s", "accept_ratio"), "wall_s", "haar_mc", ("orbit_lattice", "cover_dim")),
    ("haar.delta2_batch", ("busy_s", "rows"), "wall_s", "haar_mc", ("orbit_lattice", "cover_dim")),
    ("haar.estimate_mu_U", ("busy_s",), "op_p50_ms", "haar_mc", ()),
    ("haar.nondivergence_profile", ("busy_s",), "op_p50_ms", "haar_mc", ()),
    ("haar.core_inclusion_check", ("busy_s", "self_s", "pairs"), "op_p90_ms, wall_s", "haar_mc", ()),
    ("rng.chunked_map", ("calls", "busy_s", "chunks", "speedup_1_to_nproc"), "wall_s", "haar_mc",
     ("orbit_lattice", "cover_dim")),
    ("covering.sup_delta_flow_batch", ("calls", "busy_s", "rows", "rows_per_s"), "wall_s, op_p90_ms", "cover_dim",
     ("orbit_lattice", "haar_mc")),
    ("covering.survivor_cover", ("calls", "busy_s", "self_s", "boxes_evaluated", "boxes_kept", "keep_ratio"),
     "peak_rss_mb, wall_s", "cover_dim", ("orbit_lattice", "haar_mc")),
    ("covering.cf_digit_oracle", ("busy_s", "cylinders"), "op_p50_ms", "cover_dim", ()),
    ("trace", ("overhead_frac",), "-", "all", ()),
]

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "accept_ratio": "ratio",
         "keep_ratio": "ratio", "rows_per_s": "1/s", "speedup_1_to_nproc": "ratio", "overhead_frac": "ratio"}
HIGHER = {"accept_ratio", "rows_per_s", "speedup_1_to_nproc"}

# derived stat -> (numerator, denominator) taken from the layer's own row
RATIOS = {"accept_ratio": ("accepted", "proposed"), "rows_per_s": ("rows", "busy_s"),
          "keep_ratio": ("boxes_kept", "boxes_evaluated")}


def per_layer_names():
    return [f"{layer}.{stat}" for layer, stats, *_ in LAYER_TABLE for stat in stats]


def per_layer_spec():
    return [
        {"name": name, "unit": UNITS.get(name.rsplit(".", 1)[1], "count"),
         "better": "higher" if name.rsplit(".", 1)[1] in HIGHER else "lower"}
        for name in per_layer_names()
    ]


def per_layer_values(layers, extra):
    """Every per-layer metric; a layer that did not run reports 0.

    `layers` is spans.layer_stats output; `extra` holds values the spans
    alone cannot give, keyed by full metric name.
    """
    out = {}
    for name in per_layer_names():
        if name in extra:
            out[name] = extra[name]
            continue
        layer, stat = name.rsplit(".", 1)
        row = layers.get(layer, {})
        if stat in RATIOS:
            num, den = (row.get(k, 0) for k in RATIOS[stat])
            out[name] = num / den if den else 0.0
        else:
            out[name] = row.get(stat, 0)
    return out


def percentile(values, q):
    """Nearest-rank q-quantile, refused unless at least MIN_TAIL samples lie beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < MIN_TAIL:
        raise ValueError(f"{len(xs)} samples leave {len(xs) - rank} beyond p{q * 100:g}, need {MIN_TAIL}")
    return xs[rank - 1]


def end_to_end(pass_latencies_s, setups_s, peak_rss_kb):
    """The end-to-end metrics of one untraced run, in their units.

    `pass_latencies_s[p][k]` is op k's latency in pass p.  wall_s, the time
    to finish the op list, sums each op's median over the passes, which
    damps host noise that lasts seconds better than the median pass does.
    """
    latencies = [x for lat in pass_latencies_s for x in lat]
    return {
        "wall_s": (sum(statistics.median(op) for op in zip(*pass_latencies_s)), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups_s), "s"),
    }
