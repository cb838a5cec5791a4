"""Diagonal flows, orbit minima, and the badly-approximable classification."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspdim as cd
from cuspdim.flows import _record_frontier

W2 = cd.EQUAL_WEIGHTS_2D
PHI_M1 = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0


def test_g_t_entries():
    w = cd.WeightVector((0.3, 0.7), (1.0,))
    g = cd.g_t(w, 2.0)
    assert np.allclose(np.diag(g), [math.exp(0.6), math.exp(1.4), math.exp(-2.0)])
    assert np.count_nonzero(g - np.diag(np.diag(g))) == 0


def test_u_A_block():
    A = np.array([[0.25, -1.5]])
    u = cd.u_A(A)
    assert u.shape == (3, 3)
    assert np.allclose(u[:1, 1:], A)
    assert np.allclose(u - np.eye(3) - np.pad(A, ((0, 2), (1, 0))), 0.0)


def test_det_and_cocycle():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        iw = rng.uniform(0.2, 1.0, m)
        jw = rng.uniform(0.2, 1.0, n)
        w = cd.WeightVector(tuple(iw / iw.sum()), tuple(jw / jw.sum()))
        t = float(rng.uniform(-20.0, 20.0))
        s = float(rng.uniform(-5.0, 5.0))
        assert abs(np.linalg.det(cd.g_t(w, t)) - 1.0) <= 1e-12 * math.exp(abs(t))
        assert np.allclose(cd.g_t(w, s + t), cd.g_t(w, s) @ cd.g_t(w, t), rtol=1e-12)


def test_orbit_A0_decay():
    """A = 0 is rational: the orbit dives like e^{-t} without recovery."""
    prof = cd.orbit_profile(0.0, W2, 15.0, 0.01)
    assert abs(prof.min_delta - math.exp(-15.0)) <= 1e-12
    assert abs(prof.argmin_t - 15.0) <= 1e-12
    k = len(prof.ts) // 2
    assert abs(prof.deltas[k] - math.exp(-prof.ts[k])) <= 1e-12


def test_orbit_golden_ratio_vs_direct():
    """Orbit min over [0,15] must sit at sqrt(c_direct) for the golden ratio."""
    prof = cd.orbit_profile(PHI_M1, W2, 15.0, 0.01)
    c_direct = cd.direct_bad_constant(np.array([[PHI_M1]]), W2, 10**4)
    assert abs(prof.min_delta - math.sqrt(c_direct)) <= 0.02
    assert prof.min_delta > 0.55  # never deep in the cusp


def test_orbit_half_dives():
    prof = cd.orbit_profile(0.5, W2, 15.0, 0.01)
    assert prof.min_delta < 0.05


def test_orbit_A0_reach_t40():
    """The frontier needs no e^{t_max} array: t_max = 40 is in reach."""
    prof = cd.orbit_profile(0.0, W2, 40.0, 0.01)
    assert abs(prof.min_delta / math.exp(-40.0) - 1.0) <= 1e-12


def _scan_records(a, t_max):
    """Exact record minima of q -> dist(q a, Z) over every q <= ceil(e^t_max), ln q <= t_max."""
    x = Fraction(a)
    num, den = x.numerator, x.denominator
    best, out = None, []
    for q in range(1, math.ceil(math.exp(t_max)) + 1):
        if math.log(q) > t_max:
            break
        r = q * num % den
        dist = Fraction(min(r, den - r), den)
        if best is None or dist < best:
            best = dist
            out.append((q, dist))
    return out


_SMALL_RATIONALS = st.integers(1, 12).flatmap(
    lambda m: st.integers(-3 * m + 1, 3 * m - 1).map(lambda k: k / m)
)
_NEAR_HALF_OR_ONE = st.builds(
    lambda c, e: c + e, st.sampled_from([-1.0, -0.5, 0.5, 1.0]), st.floats(-1e-3, 1e-3)
)
_A_VALUES = st.one_of(
    st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True),
    st.just(0.0),
    _SMALL_RATIONALS,
    _NEAR_HALF_OR_ONE,
)


@settings(max_examples=200, deadline=None)
@given(a=_A_VALUES, t_max=st.floats(0.01, 9.0))
def test_record_frontier_matches_exact_scan(a, t_max):
    """Continued-fraction records equal an exact integer scan over every q."""
    dists, qs = _record_frontier(a, t_max)
    want = _scan_records(a, t_max)
    assert [int(q) for q in qs] == [q for q, _ in want]
    for got, (_, exact) in zip(dists, want):
        assert abs(Fraction(float(got)) - exact) <= Fraction(math.ulp(float(exact)))


def test_fastpath_matches_general_path():
    rng = np.random.default_rng(11)
    for A in rng.uniform(0.0, 1.0, 5):
        prof = cd.orbit_profile(float(A), W2, 3.0, 0.25)
        for t, dlt in zip(prof.ts, prof.deltas):
            lat = cd.make_lattice(cd.g_t(W2, float(t)) @ cd.u_A(float(A)))
            assert abs(cd.delta_weighted(lat, W2) - dlt) <= 1e-10


W_BK = cd.WeightVector((1.0,), (0.3, 0.7))


def _flow_quasinorm_min(A, T, qmax):
    """min quasinorm over g_T u_A Z^3, weights (1; 0.3, 0.7), for |q_l| <= qmax[l].

    Only vectors of quasinorm <= 1 matter, so |p + A q| <= e^{-T} < 1/2
    (T >= 1) and p is one of the three integers nearest -A q.
    """
    B = cd.g_t(W_BK, T) @ cd.u_A(A)
    Q = np.stack([g.ravel() for g in np.meshgrid(*[np.arange(-b, b + 1) for b in qmax], indexing="ij")], axis=1)
    P = (np.round(-(Q @ A[0])).astype(int)[:, None] + np.arange(-1, 2)[None, :]).reshape(-1)
    C = np.column_stack([P, np.repeat(Q, 3, axis=0)])
    V = np.abs(C[np.any(C != 0, axis=1)] @ B.T)
    return float(np.min(np.max([V[:, 0], V[:, 1] ** (1 / 0.6), V[:, 2] ** (1 / 1.4)], axis=0)))


def test_weighted_orbit_reaches_t15():
    """A (1; 0.3, 0.7) orbit runs to t_max = 15; samples equal a brute-force minimum.

    The raw-basis coefficient box at T = 15 has ~7e11 cells, far past the
    cell budget; the reduced basis keeps it small.
    """
    A = np.array([[0.41, 0.77]])
    prof = cd.orbit_profile(A, W_BK, 15.0, 0.5)
    assert len(prof.ts) == 31
    for T in (6.0, 9.0, 15.0):
        got = float(prof.deltas[np.flatnonzero(prof.ts == T)[0]])
        # a small q box gives an upper bound b on the minimum; every vector
        # of quasinorm <= b has |q_l| <= b^(2 j_l) e^(j_l T)
        b = _flow_quasinorm_min(A, T, (20, 20))
        qmax = [math.ceil(b ** (2 * j) * math.exp(j * T)) for j in W_BK.j]
        want = _flow_quasinorm_min(A, T, qmax)
        assert abs(got - want) <= 1e-12, (T, got, want)


def test_direct_constant_golden_ratio():
    """Exact infimum for phi-1 is (3 - sqrt 5)/2, attained at q = 1."""
    want = (3.0 - math.sqrt(5.0)) / 2.0
    got = cd.direct_bad_constant(np.array([[PHI_M1]]), W2, 10**5)
    assert abs(got - want) <= 1e-9


def test_direct_constant_sqrt2():
    """Exact infimum for sqrt(2)-1 is 6 - 4 sqrt(2), attained at q = 2."""
    want = 6.0 - 4.0 * math.sqrt(2.0)
    got = cd.direct_bad_constant(np.array([[SQRT2_M1]]), W2, 10**5)
    assert abs(got - want) <= 1e-9


def test_direct_constant_budget_checked_first():
    """A q-range beyond CELL_BUDGET is refused before anything is allocated."""
    with pytest.raises(cd.EnumerationBudgetExceeded):
        cd.direct_bad_constant(np.array([[PHI_M1]]), W2, 10**12)


def _scan_bad_constant(A, w, q_bound):
    """min over every integer q != 0 with ||q||_inf <= q_bound, by itertools.product."""
    best = math.inf
    for q in itertools.product(range(-q_bound, q_bound + 1), repeat=w.n):
        if not any(q):
            continue
        r = [sum(float(qk) * float(a) for qk, a in zip(q, row)) for row in A]
        inorm = max(abs(x - round(x)) ** (1.0 / ik) for x, ik in zip(r, w.i))
        jnorm = max(abs(float(qk)) ** (1.0 / jl) for qk, jl in zip(q, w.j))
        best = min(best, inorm * jnorm)
    return best


@pytest.mark.parametrize(
    "i, j",
    [
        ((1.0,), (0.5, 0.5)),
        ((0.4, 0.6), (0.3, 0.7)),
        ((1.0,), (0.2, 0.3, 0.5)),
        ((1.0,), (1.0,)),
        ((0.4, 0.6), (1.0,)),
        ((0.4, 0.6), (0.2, 0.3, 0.5)),
    ],
)
def test_direct_constant_grid_matches_product_scan(i, j):
    """The chunked half-box walk, one of each +-q, equals a plain scan over every q."""
    w = cd.WeightVector(i, j)
    rng = np.random.default_rng(len(i) * 10 + len(j))
    for q_bound in (1, 2, 4, 6):
        A = rng.uniform(-1.0, 1.0, (w.m, w.n))
        got = cd.direct_bad_constant(A, w, q_bound)
        assert got == pytest.approx(_scan_bad_constant(A, w, q_bound), rel=1e-12)


def test_direct_constant_budget_counts_half_the_box(monkeypatch):
    """The budget counts the ((2Q+1)^n - 1)/2 values of q walked: 12 at n = 2, Q = 2, and 24 at Q = 3."""
    monkeypatch.setattr(cd.flows, "CELL_BUDGET", 12)
    w = cd.WeightVector((1.0,), (0.5, 0.5))
    A = np.array([[PHI_M1, SQRT2_M1]])
    assert cd.direct_bad_constant(A, w, 2) == pytest.approx(_scan_bad_constant(A, w, 2), rel=1e-12)
    with pytest.raises(cd.EnumerationBudgetExceeded):
        cd.direct_bad_constant(A, w, 3)


@pytest.mark.parametrize("q_bound", [2.7, -1, math.inf, math.nan])
def test_direct_constant_q_bound_must_be_positive_integer(q_bound):
    """A non-integral q-bound is refused, not truncated (2.7 used to run as 2)."""
    with pytest.raises(cd.ValidationError) as err:
        cd.direct_bad_constant(np.array([[PHI_M1]]), W2, q_bound)
    assert err.value.field == "q-bound"
    assert cd.direct_bad_constant(np.array([[PHI_M1]]), W2, 3.0) == cd.direct_bad_constant(np.array([[PHI_M1]]), W2, 3)


def test_direct_constant_grid_memory():
    """4e6 values of q at n = 2 are built one chunk at a time, not as one ~218 MB grid."""
    w = cd.WeightVector((1.0,), (0.5, 0.5))
    A = np.array([[PHI_M1, SQRT2_M1]])
    tracemalloc.start()
    try:
        cd.direct_bad_constant(A, w, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_direct_constant_monotone_in_q_bound():
    for A in (PHI_M1, 0.414, 0.77, 0.123):
        vals = [
            cd.direct_bad_constant(np.array([[A]]), W2, qb)
            for qb in (10, 100, 1000, 10000)
        ]
        assert all(vals[k] >= vals[k + 1] - 1e-15 for k in range(3))


def test_nearest_p_optimal():
    """Coordinatewise nearest p equals full p-enumeration on small boxes."""
    rng = np.random.default_rng(12)
    w = cd.WeightVector((0.4, 0.6), (1.0,))
    for _ in range(10):
        A = rng.uniform(-1.0, 1.0, (2, 1))
        got = cd.direct_bad_constant(A, w, 6)
        best = math.inf
        for q in range(1, 7):
            for p1 in range(-10, 11):
                for p2 in range(-10, 11):
                    r = A[:, 0] * q + np.array([p1, p2])
                    ni = max(abs(r[0]) ** (1 / 0.4), abs(r[1]) ** (1 / 0.6))
                    best = min(best, ni * q)
        assert abs(got - best) <= 1e-12


def _verdict(A, c, t_max=15.0, dt=0.01):
    """The Dani verdict at level c from the orbit of u_A Z^2 on [0, t_max]."""
    return cd.classify_from_profile(cd.orbit_profile(A, W2, t_max, dt), c, 2)


def test_dani_examples():
    assert _verdict(PHI_M1, 0.3).classification == "Bad"
    assert _verdict(0.5, 0.1).classification == "NotBad"
    assert _verdict(PHI_M1, 0.5).classification == "NotBad"


def test_dani_verdict_fields():
    v = _verdict(PHI_M1, 0.3)
    assert v.margin > 1.0
    assert abs(v.orbit_min - 0.6188) < 0.01


def test_window_matched_agreement():
    """Zero hard flips when the brute q-range is matched to the orbit window.

    A vector with q > sqrt(c) e^{t_max} cannot certify NotBad inside the
    window, and any witness with q below that bound enters the window
    before t_max; outside the +/-0.02 band the two verdicts must agree.
    """
    rng = np.random.default_rng(1)
    t_max = 15.0
    for A in rng.uniform(0.0, 1.0, 50):
        prof = cd.orbit_profile(float(A), W2, t_max, 0.01)
        for c in (0.05, 0.1, 0.2):
            qb = math.ceil(math.sqrt(c) * math.exp(t_max))
            c_direct = cd.direct_bad_constant(np.array([[float(A)]]), W2, qb)
            if abs(c_direct - c) < 0.02:
                continue
            v = cd.classify_from_profile(prof, c, 2)
            if v.classification == "Boundary":
                continue
            assert (v.classification == "Bad") == (c_direct >= c), (A, c, c_direct)


def test_verdict_consistency_in_t_max():
    """Rank Bad > Boundary > NotBad never increases as the window grows."""
    rank = {"Bad": 2, "Boundary": 1, "NotBad": 0}
    rng = np.random.default_rng(2)
    for A in rng.uniform(0.0, 1.0, 30):
        for c in (0.05, 0.15, 0.3):
            seq = [rank[_verdict(float(A), c, T, 0.01).classification] for T in (3.0, 6.0, 9.0, 12.0, 15.0)]
            assert all(seq[k] >= seq[k + 1] for k in range(len(seq) - 1)), (A, c, seq)


def test_boundary_is_reachable():
    """c placed within the grid margin of the orbit minimum forces Boundary."""
    prof = cd.orbit_profile(PHI_M1, W2, 15.0, 0.01)
    c = prof.min_delta**2  # eps = c^{1/2} == orbit min exactly
    v = cd.classify_from_profile(prof, c, 2)
    assert v.classification == "Boundary"


def test_window_and_c_validation():
    with pytest.raises(cd.ValidationError) as err:
        cd.orbit_profile(PHI_M1, W2, -1.0, 0.01)
    assert err.value.field == "t-max"
    with pytest.raises(cd.ValidationError) as err:
        cd.orbit_profile(PHI_M1, W2, 5.0, 0.0)
    assert err.value.field == "dt"
    with pytest.raises(cd.ValidationError) as err:
        _verdict(PHI_M1, 1.5)
    assert err.value.field == "c"
    # e^t of the grid must be finite, and the grid no longer than MAX_SAMPLES
    with pytest.raises(cd.ValidationError) as err:
        cd.orbit_profile(PHI_M1, W2, 800.0, 0.01)
    assert err.value.field == "t-max"
    with pytest.raises(cd.ValidationError) as err:
        cd.orbit_profile(PHI_M1, W2, 20.0, 1e-4)
    assert err.value.field == "t-max"
    for A in (math.nan, math.inf):
        with pytest.raises(cd.ValidationError):
            cd.orbit_profile(A, W2, 5.0, 0.01)
    # c^(1/d) is the cusp radius for c in (0, 1) only
    assert cd.flows.cusp_radius(0.25, 2) == 0.5
    with pytest.raises(cd.ValidationError) as err:
        cd.flows.cusp_radius(math.nan, 2)
    assert err.value.field == "c"
    with pytest.raises(cd.ValidationError) as err:
        cd.direct_bad_constant(np.array([[PHI_M1]]), W2, 0)
    assert err.value.field == "q-bound"
    # a scalar A is 1 x 1; any other shape must be exactly m x n
    for A in ([0.41, 0.77], [[0.41], [0.77]], 0.5):
        with pytest.raises(cd.ValidationError) as err:
            cd.orbit_profile(A, W_BK, 2.0, 0.5)
        assert err.value.field == "A"
