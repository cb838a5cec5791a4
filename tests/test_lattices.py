"""Shortest vectors and weighted cusp functions: exactness and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cuspdim as cd
from cuspdim import lattices
from cuspdim.haar import delta2_batch
from cuspdim.lattices import _lll_reduce

W2 = cd.EQUAL_WEIGHTS_2D
# weights per dimension for the weighted minimum
WEIGHTS = {2: W2, 3: cd.WeightVector((1.0,), (0.3, 0.7)), 4: cd.WeightVector((0.5, 0.5), (0.4, 0.6))}


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


def brute_minima(V, w):
    """Euclid, sup and weighted minima over the rows V, quasinorm written out here."""
    A = np.abs(V)
    # |v_k|^(1/(m i_k)) on the first m coordinates, |v_l|^(1/(n j_l)) on the rest
    expo = np.array([1.0 / (w.m * ik) for ik in w.i] + [1.0 / (w.n * jl) for jl in w.j])
    return (
        float(np.sqrt(np.min(np.sum(A * A, axis=1)))),
        float(np.min(np.max(A, axis=1))),
        float(np.min(np.max(A**expo, axis=1))),
    )


def flow_coeffs(A, T, w):
    """Coefficients (p, q) of every vector of g_T u_A Z^d (m = 1) of euclid norm <= sqrt(d).

    Such a vector (e^T (p + A q), e^{-j_l T} q_l) has |q_l| <= sqrt(d) e^{j_l T}
    and |p + A q| <= sqrt(d) e^{-T} < 5/2, so the q box is a full meshgrid
    and p runs over the seven integers nearest to -A q.  Every sup and
    weighted minimizer lies there too (Minkowski: both minima are <= 1).
    """
    A = np.asarray(A, dtype=float).reshape(-1)
    axes = [np.arange(-b, b + 1) for b in np.ceil(math.sqrt(w.d) * np.exp(np.array(w.j) * T)).astype(int)]
    Q = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    P = (np.round(-(Q @ A)).astype(int)[:, None] + np.arange(-3, 4)[None, :]).reshape(-1)
    C = np.column_stack([P, np.repeat(Q, 7, axis=0)])
    return C[np.any(C != 0, axis=1)]


def gram_schmidt(B):
    """mu and squared norms of the Gram-Schmidt vectors of B's columns, by the textbook loop."""
    d = B.shape[1]
    star = np.zeros_like(B)
    mu = np.eye(d)
    for k in range(d):
        star[:, k] = B[:, k]
        for j in range(k):
            mu[k, j] = B[:, k] @ star[:, j] / (star[:, j] @ star[:, j])
            star[:, k] -= mu[k, j] * star[:, j]
    return mu, np.sum(star * star, axis=0)


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


def test_inexact_raw_coefficients_refused():
    """Deep in the cusp the raw coefficients of the reduced box pass 2^53: a typed error, not a guess."""
    w = cd.WeightVector((1.0,), (0.5, 0.5))
    lat = cd.make_lattice(cd.g_t(w, 22.25) @ cd.u_A(np.array([[0.9833694366677761, 0.8383799784757964]])))
    with pytest.raises(cd.CoefficientBudgetExceeded):
        cd.delta_weighted(lat, w)


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(lattices, "CELL_BUDGET", 10)
    lat = cd.make_lattice(np.eye(5))
    with pytest.raises(cd.EnumerationBudgetExceeded):
        cd.shortest_vector(lat, "euclid")


def test_unknown_norm_refused():
    with pytest.raises(cd.ValidationError) as err:
        cd.delta(cd.make_lattice(np.eye(3)), "taxicab")
    assert err.value.field == "norm"


def _skewed_unimodular(seed, d, steps):
    """A well-conditioned unimodular basis and the same lattice after integer column operations."""
    rng = np.random.default_rng(seed)
    B = random_unimodular(rng, d)
    U = np.eye(d, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(d, 2, replace=False)
        U[:, i] += int(rng.integers(-3, 4)) * U[:, j]
    return B, B @ U


def _check_reduced(B):
    Br, M = _lll_reduce(B)
    assert M.dtype == np.int64
    assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-6
    assert np.array_equal(Br, B @ M)
    mu, bb = gram_schmidt(Br)
    d = B.shape[1]
    for k in range(1, d):
        assert np.all(np.abs(mu[k, :k]) <= 0.5 + 1e-9), mu
        assert bb[k] >= (0.99 - mu[k, k - 1] ** 2) * bb[k - 1] * (1.0 - 1e-9), (k, bb, mu)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_lll_reduce_properties(d, seed, steps):
    """Unimodular transform, size reduction and Lovasz at 0.99; minima equal brute force."""
    B, Bs = _skewed_unimodular(seed, d, steps)
    _check_reduced(Bs)
    # every minimizer has euclid norm <= max(shortest column, sqrt(d)): Minkowski
    # puts a vector of sup norm <= 1 in the lattice, and quasinorm <= 1 implies
    # sup norm <= 1; so |c_k| <= |row_k(B^-1)| times that radius
    radius = max(float(np.min(np.linalg.norm(B, axis=0))), math.sqrt(d))
    bounds = np.ceil(np.linalg.norm(np.linalg.inv(B), axis=1) * radius).astype(int)
    assume(np.prod(2 * bounds + 1) <= 2_000_000)
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
    C = np.stack([g.ravel() for g in grids], axis=1)
    C = C[np.any(C != 0, axis=1)]
    want = brute_minima(C @ B.T, WEIGHTS[d])
    lat = cd.Lattice(d, Bs)
    got = (
        cd.shortest_vector(lat, "euclid").length,
        cd.shortest_vector(lat, "sup").length,
        cd.shortest_vector_weighted(lat, WEIGHTS[d]).length,
    )
    # the skewed basis is the same lattice up to the roundoff of B @ U
    assert np.allclose(got, want, rtol=1e-9, atol=0.0), (got, want)


@settings(max_examples=25, deadline=None)
@example(0.41, 0.77, 9.0)
@given(
    st.floats(-1.0, 1.0, allow_subnormal=False),
    st.floats(-1.0, 1.0, allow_subnormal=False),
    st.floats(0.0, 9.0, allow_subnormal=False),
)
def test_lll_flow_bases_match_brute(a1, a2, T):
    """On g_T u_A Z^3, T <= 9, the minima in all three norms equal the flow-box brute force."""
    w = WEIGHTS[3]
    B = cd.g_t(w, T) @ cd.u_A(np.array([[a1, a2]]))
    _check_reduced(B)
    lat = cd.make_lattice(B)
    sv = (
        cd.shortest_vector(lat, "euclid"),
        cd.shortest_vector(lat, "sup"),
        cd.shortest_vector_weighted(lat, w),
    )
    want = brute_minima(flow_coeffs([a1, a2], T, w) @ B.T, w)
    for s, want_len in zip(sv, want):
        assert abs(s.length - want_len) <= 1e-12 * max(1.0, want_len), (T, s, want_len)
        assert np.array_equal(s.vec, B @ np.array(s.coeffs, dtype=float))
