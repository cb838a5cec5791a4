"""Tests of the benchmark's own logic: percentiles, self time, checks, op lists, tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import checks
import metrics
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_p90_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert metrics.percentile(xs, 0.9) == 90
    assert metrics.percentile(reversed(xs), 0.5) == 50
    with pytest.raises(ValueError):
        metrics.percentile(xs[:99], 0.9)
    with pytest.raises(ValueError):
        metrics.percentile(range(10), 0.5)


def _span(sid, name, start, end, parent, thread=1):
    return spans.Span(sid, name, start, end, parent, 0, thread, {})


def test_union_self_time_with_overlapping_pool_spans():
    tree = [
        _span(1, "bench.op", 0.0, 12.0, None),
        _span(2, "rng.chunked_map", 1.0, 11.0, 1),
        # two pool threads: their spans overlap each other
        _span(3, "haar.delta2_batch", 2.0, 7.0, 2, thread=2),
        _span(4, "haar.delta2_batch", 3.0, 9.0, 2, thread=3),
        _span(5, "haar.gauss_reduce_batch", 3.0, 4.0, 4, thread=3),
    ]
    assert spans.self_times(tree) == {1: 2.0, 2: 3.0, 3: 5.0, 4: 5.0, 5: 1.0}
    # self times sum to 16 > 12 s of op time, so only the root's own share says what is untraced
    assert spans.untraced_frac(tree) == pytest.approx(2.0 / 12.0)
    assert spans.union_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)


def test_tracer_parents_pool_spans_and_restores_bindings():
    import cuspdim.flows
    import cuspdim.haar
    import cuspdim.lattices

    original = cuspdim.lattices.make_lattice
    tr = spans.Tracer()
    tr.install()
    try:
        assert cuspdim.flows.make_lattice is cuspdim.lattices.make_lattice is not original
        with tr.root(7):
            cuspdim.haar.estimate_mu_U(0.1, cuspdim.lattices.EQUAL_WEIGHTS_2D, 3 << 16, seed=1, threads=2)
        cuspdim.lattices.make_lattice([[1.0, 0.0], [0.0, 1.0]])  # outside an op: not recorded
    finally:
        tr.uninstall()
    assert cuspdim.flows.make_lattice is cuspdim.lattices.make_lattice is original
    by_id = {s.id: s for s in tr.spans}
    pool = next(s for s in tr.spans if s.name == "rng.chunked_map")
    batches = [s for s in tr.spans if s.name == "haar.delta2_batch"]
    assert len(batches) == 3 and all(s.parent == pool.id for s in batches)
    assert by_id[pool.parent].name == "haar.estimate_mu_U"
    assert pool.counts == {"chunks": 3}
    assert all(s.op == 7 for s in tr.spans) and "lattices.make_lattice" not in {s.name for s in tr.spans}
    stats = spans.layer_stats(tr.spans, 1)
    assert stats["haar.sample_batch"]["accepted"] == 3 << 16
    assert 0.0 <= spans.untraced_frac(tr.spans) < 0.05


def test_same_seed_same_op_list():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 5), workloads.generate(name, 5)
        assert a == b
        assert a != workloads.generate(name, 6)
        assert [op.type for op in workloads.warmups(name, 5)] == [op.type for op in workloads.warmups(name, 6)]


class FakeRunner:
    """Runner whose ops return canned (code, text, raised) triples."""

    cuspdim = None

    def __init__(self, results):
        self.results = iter(results)

    def execute(self, op):
        return next(self.results)

    def check(self, op, code, text, raised):
        return raised or checks.check(op, code, text, self.cuspdim)


def _bad_report(classification, c_direct, c_target, agree):
    res = {"classification": classification, "c_direct": c_direct, "c_target": c_target, "agree": agree}
    return json.dumps({"results": res})


def test_failure_accounting():
    op = workloads.Op("bad_t10", "cli", ("bad",))
    results = [
        (0, _bad_report("Bad", 0.30, 0.20, True), None),  # ok
        (2, _bad_report("Boundary", 0.201, 0.20, None), None),  # exit 2 justified by Boundary
        (2, _bad_report("Bad", 0.30, 0.20, True), None),  # exit 2 without Boundary
        (0, _bad_report("NotBad", 0.30, 0.20, False), None),  # disagrees outside the band
        (0, _bad_report("NotBad", 0.21, 0.20, False), None),  # disagrees inside the band: allowed
        (None, "", "raised RuntimeError()"),  # raised
        (0, "not json", None),  # malformed
    ]
    p = worker.run_pass(FakeRunner(results), [op] * len(results))
    assert len(p.latencies) == 7
    assert p.failed == 4
    assert [r.split(":", 1)[0] for r in p.reasons] == [f"op {k} (bad_t10)" for k in (2, 3, 5, 6)]
    assert p.outputs[2] == "failed 2" and p.outputs[0] != p.outputs[1]


def test_canonical_drops_build_and_thread_fields():
    op = workloads.Op("mu", "cli", ("mu",))
    a = json.dumps({"version": "x", "config": {"threads": 1, "seed": 3}, "results": {"mean": 0.1}})
    b = json.dumps({"version": "y", "config": {"threads": 2, "seed": 3}, "results": {"mean": 0.1}})
    assert checks.canonical(op, a) != checks.canonical(op, b)
    drop = ("version", "config.threads")
    assert checks.canonical(op, a, drop) == checks.canonical(op, b, drop)


def test_benchmark_json_matches_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == metrics.per_layer_names()
    assert {m["name"] for m in bench["end_to_end"]} == set(metrics.end_to_end([[1.0] * 100], [1.0], 1024))
