"""Shortest vectors and weighted cusp functions: exactness and invariants."""

import json
import math

import numpy as np
import pytest

import cuspdim as cd
from cuspdim.haar import delta2_batch

W2 = cd.EQUAL_WEIGHTS_2D


def random_unimodular(rng, d, lo=-3.0, hi=3.0):
    """Uniform entries in [lo, hi], rejected until well-conditioned, det-normalized."""
    while True:
        B = rng.uniform(lo, hi, (d, d))
        det = np.linalg.det(B)
        if abs(det) > 0.5:
            if det < 0:
                B[:, 0] = -B[:, 0]
            return B / abs(det) ** (1.0 / d)


def brute_min(B, norm, bound=50):
    """Exhaustive minimum over coefficient box |c_k| <= bound, independent path."""
    d = B.shape[0]
    grids = np.meshgrid(*[np.arange(-bound, bound + 1)] * d, indexing="ij")
    C = np.stack([g.ravel() for g in grids], axis=1)
    C = C[np.any(C != 0, axis=1)]
    V = C @ B.T
    if norm == "euclid":
        return float(np.min(np.sqrt(np.sum(V * V, axis=1))))
    return float(np.min(np.max(np.abs(V), axis=1)))


def test_z2_examples():
    lat = cd.make_lattice(np.eye(2))
    sv = cd.shortest_vector(lat, "euclid")
    assert sv.length == 1.0
    assert sv.coeffs == (1, 0)
    assert cd.delta(lat, "sup") == 1.0
    assert cd.delta_weighted(lat, W2) == 1.0


def test_sup_tie_break_frozen():
    # all four sup-minimizers of Z^2 have length 1; the deterministic pick
    # (canonical sign, then smallest under reversed-tuple order) is frozen
    sv = cd.shortest_vector(cd.make_lattice(np.eye(2)), "sup")
    assert sv.length == 1.0
    assert sv.coeffs == (1, -1)


def test_diagonal_lattice():
    lat = cd.make_lattice(np.diag([2.0, 0.5]))
    assert cd.delta(lat, "sup") == 0.5
    assert cd.delta(lat, "euclid") == 0.5
    sv = cd.shortest_vector(lat, "euclid")
    assert abs(sv.vec[1]) == 0.5 and sv.vec[0] == 0.0


def test_make_lattice_validation():
    with pytest.raises(cd.DeterminantError):
        cd.make_lattice(np.diag([2.0, 1.0]))
    with pytest.raises(cd.RankError):
        cd.make_lattice(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(cd.ValidationError):
        cd.make_lattice(np.eye(3)[:2])  # not square
    with pytest.raises(cd.UnsupportedDimension):
        cd.make_lattice(np.eye(6))
    # tolerance is honored
    cd.make_lattice(np.diag([1.0 + 5e-10, 1.0]))


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    B = random_unimodular(rng, 3)
    lat = cd.make_lattice(B)
    lat2 = cd.Lattice.from_json(json.loads(json.dumps(lat.to_json())))
    assert lat2.dim == 3
    assert np.array_equal(lat2.basis, lat.basis)


def test_oracle_equivalence_100_bases():
    """shortest_vector length == exhaustive |c| <= 50 search, 2x2 and 3x3.

    At d = 2 the float Gauss reduction `delta2_batch` is checked too, on
    bases that need its swap and mu steps.
    """
    rng = np.random.default_rng(42)
    for d, count, bound in ((2, 60, 50), (3, 40, 12)):
        for _ in range(count):
            B = random_unimodular(rng, d)
            lat = cd.make_lattice(B)
            for norm in ("euclid", "sup"):
                want = brute_min(B, norm, bound)
                got = [cd.shortest_vector(lat, norm).length]
                if d == 2:
                    got.append(float(delta2_batch(B[None], norm)[0]))
                for g in got:
                    assert abs(g - want) <= 1e-12, (d, norm, g, want)


def test_weighted_oracle_equivalence():
    rng = np.random.default_rng(43)
    w3 = cd.WeightVector((1.0,), (0.3, 0.7))
    for _ in range(25):
        B = random_unimodular(rng, 3)
        lat = cd.make_lattice(B)
        got = cd.delta_weighted(lat, w3)
        grids = np.meshgrid(*[np.arange(-12, 13)] * 3, indexing="ij")
        C = np.stack([g.ravel() for g in grids], axis=1)
        C = C[np.any(C != 0, axis=1)]
        V = C @ B.T
        p = np.abs(V[:, :1]) ** (1.0 / np.array(w3.i))
        q = np.abs(V[:, 1:]) ** (1.0 / np.array(w3.j))
        want = float(np.min(np.maximum(np.max(p, 1) ** 1.0, np.max(q, 1) ** 0.5)))
        assert abs(got - want) <= 1e-12, (got, want)


def test_bound_for_delta():
    """delta(x, sup) >= delta_w(x)^max(m,n) whenever delta_w(x) <= 1."""
    rng = np.random.default_rng(44)
    w3 = cd.WeightVector((1.0,), (0.4, 0.6))
    for _ in range(50):
        lat = cd.make_lattice(random_unimodular(rng, 3))
        dw = cd.delta_weighted(lat, w3)
        if dw <= 1.0:
            assert cd.delta(lat, "sup") >= dw ** max(w3.m, w3.n) - 1e-12


def test_flow_scaling_band():
    """m=n=1 equal weights: delta(g_s x) within e^{|s|} of delta(x)."""
    rng = np.random.default_rng(45)
    for _ in range(20):
        B = random_unimodular(rng, 2)
        lat = cd.make_lattice(B)
        d0 = cd.delta_weighted(lat, W2)
        for s in (-3.0, -1.0, 0.5, 2.0, 3.0):
            ds = cd.delta_weighted(cd.make_lattice(cd.g_t(W2, s) @ B), W2)
            assert math.exp(-abs(s)) * d0 - 1e-12 <= ds <= math.exp(abs(s)) * d0 + 1e-12


def test_sign_permutation_symmetry():
    rng = np.random.default_rng(46)
    for _ in range(20):
        B = random_unimodular(rng, 3)
        base = cd.shortest_vector(cd.make_lattice(B), "euclid").length
        Bn = B.copy()
        Bn[:, 0] *= -1.0
        Bn[:, 1] *= -1.0  # two sign flips keep det = +1 and the lattice
        assert abs(cd.shortest_vector(cd.make_lattice(Bn), "euclid").length - base) <= 1e-12
        Bp = B[:, [2, 0, 1]]  # cyclic permutation is even
        assert abs(cd.shortest_vector(cd.make_lattice(Bp), "euclid").length - base) <= 1e-12


def test_rotation_invariance_euclid():
    rng = np.random.default_rng(47)
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    for _ in range(10):
        B = random_unimodular(rng, 2)
        a = cd.delta(cd.make_lattice(B), "euclid")
        b = cd.delta(cd.make_lattice(R @ B), "euclid")
        assert abs(a - b) <= 1e-9


def test_weight_vector_validation():
    with pytest.raises(cd.ValidationError):
        cd.WeightVector((0.5, 0.4), (1.0,))  # i does not sum to 1
    with pytest.raises(cd.ValidationError):
        cd.WeightVector((1.0,), (0.5, -0.5, 1.0))  # negative entry
    w = cd.WeightVector((0.3, 0.7), (1.0,))
    assert w.m == 2 and w.n == 1 and w.d == 3
    assert abs(w.alpha - 0.3) < 1e-15
    assert not w.equal and W2.equal


def test_quasinorm_values():
    w = cd.WeightVector((1.0,), (0.3, 0.7))
    # max(|p|^{1/i}, max(|q_l|^{1/j_l})^{1/n}) with m=1, n=2
    v = np.array([0.5, 0.2, 0.1])
    p = 0.5
    q = max(0.2 ** (1 / 0.3), 0.1 ** (1 / 0.7)) ** (1 / 2)
    assert abs(cd.quasinorm(v, w) - max(p, q)) <= 1e-12
    with pytest.raises(cd.DimensionMismatch):
        cd.quasinorm(np.array([1.0, 2.0]), w)


def test_equal_weights_quasinorm_is_sup():
    rng = np.random.default_rng(48)
    for _ in range(50):
        v = rng.normal(0, 2, 2)
        assert abs(cd.quasinorm(v, W2) - np.max(np.abs(v))) <= 1e-12


def test_enumeration_budget():
    lat = cd.make_lattice(np.eye(5))
    with pytest.raises(cd.EnumerationBudgetExceeded):
        cd.shortest_vector(lat, "euclid", budget=10)
