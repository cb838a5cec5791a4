"""Tessellation counts, survivor covers, dimension fits, and the cylinder oracle."""

import ast
import decimal
import inspect
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspdim as cd
from cuspdim import covering, haar
from cuspdim.covering import (
    _cf_lengths,
    _per_axis_count,
    default_safety,
    sup_delta_flow_batch,
)

W2 = cd.EQUAL_WEIGHTS_2D
W3 = cd.WeightVector((1.0,), (0.3, 0.7))


def _identity_rows(n):
    """The (4, n) integer rows (a1, b1, a2, b2) of n identity starts of the d = 2 kernel."""
    return np.array([[1], [0], [0], [1]], dtype=np.int64).repeat(n, axis=1)


@pytest.fixture(scope="module")
def cover_c025():
    """Shared survivor cover at the headline parameters (t=2, four levels)."""
    x0 = cd.make_lattice(np.eye(2))
    return cd.survivor_cover(x0, W2, 0.25, 0.5, 2.0, 4)


def test_tessellation_geometry():
    tess = cd.tessellation_new(1, 0.5)
    assert tess.side == 0.5 / 4.0
    tess2 = cd.tessellation_new(2, 0.8)
    assert abs(tess2.side - 0.8 / (4.0 * math.sqrt(2.0))) <= 1e-15


def test_count_t0_single_cell():
    tess = cd.tessellation_new(1, 0.5)
    assert cd.count_S_rt(tess, W2, 0.0) == 1
    tess2 = cd.tessellation_new(2, 0.5)
    assert cd.count_S_rt(tess2, W3, 0.0) == 1


def test_count_matches_brute_sweep():
    """Exact formula equals independent interval enumeration on 50 triples."""
    for r in (0.3, 0.5, 0.65, 0.8, 1.0):
        for t in (0.0, 0.4, 0.9, 1.3, 1.8):
            for w in (W2, W3):
                tess = cd.tessellation_new(w.m * w.n, r)
                got = cd.count_S_rt(tess, w, t)
                want = cd.count_S_rt_brute(tess, w, t)
                assert got == want, (r, t, w, got, want)


@pytest.mark.parametrize(
    "w",
    [W2, W3, cd.WeightVector((0.4, 0.6), (1.0,)), cd.WeightVector((1.0,), (0.5, 0.5))],
    ids=["1;1", "1;0.3,0.7", "0.4,0.6;1", "1;0.5,0.5"],
)
def test_lemma_bound_with_proven_K3(w):
    """With `cover`'s K3 = (2^L - 1) side^L the bound dominates the exact count at every t, and a
    K3 calibrated on `cover`'s sweep grid is never above it."""
    sweep_t = [0.5 * i for i in range(1, 9)]
    for r in (0.1, 0.3, 0.5, 0.65, 0.8, 1.0):
        tess = cd.tessellation_new(w.m * w.n, r)
        K3 = (2**tess.L - 1) * tess.side**tess.L
        for i in range(1000):
            t = i / 100.0
            assert cd.lemma61_bound(tess, w, t, K3) >= cd.count_S_rt(tess, w, t), (r, t)
        assert cd.calibrate_K3(tess, w, sweep_t) <= K3, r


def test_lemma_bound_dominates_sweep():
    """Calibrated-K3 bound >= exact count across the full sweep."""
    ts = [0.0, 0.4, 0.9, 1.3, 1.8]
    for r in (0.3, 0.5, 0.65, 0.8, 1.0):
        for w in (W2, W3):
            tess = cd.tessellation_new(w.m * w.n, r)
            K3 = cd.calibrate_K3(tess, w, ts)
            for t in ts:
                cnt = cd.count_S_rt(tess, w, t)
                bound = cd.lemma61_bound(tess, w, t, K3)
                assert bound >= cnt, (r, t, w, cnt, bound)


def test_kernel_vs_enumeration():
    """Coefficient-tracked flow kernel equals the generic enumeration path on g_T u_h x0."""
    rng = np.random.default_rng(7)
    hs = rng.uniform(0.0, 0.125, 100)
    for basis, Ts in ((np.eye(2), (2.0, 5.0, 8.0)), (_SHEARED_HEX, (2.0, 5.0, 8.0))):
        for T in Ts:
            kd = sup_delta_flow_batch(hs, T, basis, _identity_rows(len(hs)))
            for h, dk in zip(hs, kd):
                lat = cd.make_lattice(cd.g_t(W2, T) @ cd.u_A(float(h)) @ basis)
                assert abs(cd.delta_weighted(lat, W2) - dk) <= 1e-9


def test_kernel_coefficient_guard():
    # convergent denominators reach 2^31 once e^T does (T >= 22)
    with pytest.raises(cd.BudgetExceeded, match="^Gauss reduction coefficients exceeded the exact-int64 range 2\\^31$"):
        sup_delta_flow_batch(np.array([1.0 / math.pi]), 23.0, np.eye(2), _identity_rows(1))


@pytest.mark.parametrize("T", [354.0, 400.0, 710.0])
def test_kernel_guard_casts_no_mu_past_int64(T):
    """A mu past int64 (h = 1e-300 deep in the cusp) ends in the guard's error with no cast warning
    (warnings are errors in this suite)."""
    with pytest.raises(cd.BudgetExceeded, match="^Gauss reduction coefficients exceeded the exact-int64 range 2\\^31$"):
        sup_delta_flow_batch(np.array([1e-300]), T, np.eye(2), _identity_rows(1))


_S = 3**-0.25 * math.sqrt(2.0)
_SHEARED_HEX = np.array([[1.0, -0.0007], [0.0013, 1.0 - 0.0013 * 0.0007]]) @ np.array(
    [[_S, _S / 2.0], [0.0, _S * math.sqrt(3.0) / 2.0]]
)


@settings(max_examples=100, deadline=None)
@given(
    hs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
    T=st.floats(0.0, 10.0),  # mu <= e^{2T}/2 stays below the 2^31 coefficient guard
    t=st.floats(0.0, 3.0),
    shift=st.floats(-1.0, 1.0),
    hexagonal=st.booleans(),
)
def test_warm_start_matches_cold(hs, T, t, shift, hexagonal):
    """A start reduced at T - t near h (a parent box) gives the cold values bit for bit."""
    basis = _SHEARED_HEX if hexagonal else np.eye(2)
    h = np.array(hs)
    T0 = max(T - t, 0.0)
    coeffs = _identity_rows(len(h))
    sup_delta_flow_batch(h + shift * math.exp(-2.0 * T0), T0, basis, coeffs)
    warm = sup_delta_flow_batch(h, T, basis, coeffs)
    assert np.array_equal(warm, sup_delta_flow_batch(h, T, basis, _identity_rows(len(h))))
    assert np.all(np.abs(coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]) == 1)  # unimodular


def test_kernel_blocks_match_one_block(monkeypatch):
    """Splitting the rows into blocks changes neither the values nor the reduced rows."""
    h = np.random.default_rng(3).uniform(0.0, 0.125, 1000)
    one = _identity_rows(len(h))
    many = one.copy()
    whole = sup_delta_flow_batch(h, 6.0, _SHEARED_HEX, one)
    monkeypatch.setattr(covering, "KERNEL_BLOCK", 7)
    assert np.array_equal(sup_delta_flow_batch(h, 6.0, _SHEARED_HEX, many), whole)
    assert np.array_equal(many, one)


def _decimal_sup_min(h, T, basis, pairs):
    """min over the integer pairs (a, b) of |g_T u_h x0 (a, b)|_inf, in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        eT = Decimal(T).exp()
        (b00, b01), (b10, b11) = [[Decimal(float(x)) for x in row] for row in basis]
        hd = Decimal(float(h))
        sups = []
        for a, b in pairs:
            v1, v2 = b00 * a + b01 * b, b10 * a + b11 * b
            sups.append(max(abs(eT * (v1 + hd * v2)), abs(v2 / eT)))
        return min(sups)


@pytest.mark.parametrize("T", [5.0, 8.0, 12.0, 15.0])
@pytest.mark.parametrize("hexagonal", [False, True], ids=["Z2", "hex"])
def test_kernel_error_against_decimal(T, hexagonal):
    """The kernel's value is the sup-minimum over its own four candidate pairs to a relative
    2^-60 e^{2T}: the long-double expansion cancels from about e^T |coeffs| to the vector's size."""
    basis = _SHEARED_HEX if hexagonal else np.eye(2)
    h = np.random.default_rng(29).uniform(0.0, 1.0, 300)
    coeffs = _identity_rows(len(h))
    got = sup_delta_flow_batch(h, T, basis, coeffs)
    bound = 2.0**-60 * math.exp(2.0 * T)
    for k in range(len(h)):
        a1, b1, a2, b2 = (int(x) for x in coeffs[:, k])
        want = _decimal_sup_min(h[k], T, basis, [(a1, b1), (a2, b2), (a1 + a2, b1 + b2), (a1 - a2, b1 - b2)])
        assert abs(Decimal(float(got[k])) - want) <= Decimal(bound) * want, (k, float(want))


def _long_double_only(h, T, basis):
    """The Gauss loop run once, in long double, from the identity, then the reduced pair evaluated:
    the values or the error of that path."""
    LD = np.longdouble
    h, C, B, eT, emT = np.asarray(h, dtype=LD), _identity_rows(len(h)), np.asarray(basis, dtype=LD), np.exp(LD(T)), np.exp(-LD(T))
    guarded, stuck = covering._reduce_block(h, C, B, eT, emT)
    if guarded:
        return cd.BudgetExceeded, "Gauss reduction coefficients exceeded the exact-int64 range 2^31"
    if stuck:
        return cd.InvariantViolation, f"Gauss reduction of {stuck} rows did not converge in 96 passes"
    return haar.reduced_sup_min(*covering._expand(C[0], C[1], h, B, eT, emT), *covering._expand(C[2], C[3], h, B, eT, emT))


@pytest.mark.parametrize("T", [0.5, 2.0, 5.0, 8.0, 11.0, 14.0, 15.0])
@pytest.mark.parametrize("hexagonal", [False, True], ids=["Z2", "hex"])
def test_kernel_matches_long_double_loop(T, hexagonal):
    """Steps picked in float64 and certified in long double give the values of the long-double loop alone."""
    basis = _SHEARED_HEX if hexagonal else np.eye(2)
    h = np.random.default_rng(31).uniform(0.0, 1.0, 2000)
    got = sup_delta_flow_batch(h, T, basis, _identity_rows(len(h)))
    assert np.array_equal(got, _long_double_only(h, T, basis))


@pytest.mark.parametrize(
    "h, T",
    [(0.7952948234487297, 16.0), (0.7952948234487297, 17.0), (0.831396183096627, 16.0), (1 / math.pi, 20.0), (1 / math.pi, 23.0)],
)
@pytest.mark.parametrize("hexagonal", [False, True], ids=["Z2", "hex"])
def test_kernel_deep_rows_match_long_double_loop(h, T, hexagonal):
    """Rows deep in the cusp, where the reduction can fail on Z^2 (ROADMAP item 11, still open), give the
    value or the error class and message of the long-double loop alone: this pins agreement, not correctness."""
    basis = _SHEARED_HEX if hexagonal else np.eye(2)
    want = _long_double_only(np.array([h]), T, basis)
    if isinstance(want, tuple):
        with pytest.raises(want[0], match=f"^{re.escape(want[1])}$"):
            sup_delta_flow_batch(np.array([h]), T, basis, _identity_rows(1))
    else:
        assert np.array_equal(sup_delta_flow_batch(np.array([h]), T, basis, _identity_rows(1)), want)


def test_extinction_near_c1(cover_c025):
    """c = 0.9 exceeds the Hurwitz ceiling 1/sqrt(5): nothing survives."""
    x0 = cd.make_lattice(np.eye(2))
    cov = cd.survivor_cover(x0, W2, 0.9, 0.5, 1.0, 1)
    assert [lv.count for lv in cov] == [1, 0]
    assert not cov.truncated


def test_counts_positive_and_ratio_stabilizes(cover_c025):
    counts = [lv.count for lv in cover_c025]
    assert counts[0] == 1
    assert all(c > 0 for c in counts)
    r_late = counts[4] / counts[3]
    r_prev = counts[3] / counts[2]
    assert abs(r_late - r_prev) / r_prev <= 0.05


def test_nesting_in_parent(cover_c025):
    """Every level-(k+1) box sits inside the closure of a level-k box.

    Interval case: the containing parent must be the one with the
    nearest center, so a sorted lookup replaces the all-pairs check.
    """
    for k in range(1, len(cover_c025.levels)):
        par = cover_c025.levels[k - 1]
        cur = cover_c025.levels[k]
        pc = np.sort(par.centers[:, 0])
        ph = par.half_sides[0]
        ch = cur.half_sides[0]
        x = cur.centers[:, 0]
        idx = np.clip(np.searchsorted(pc, x), 0, len(pc) - 1)
        cand = np.stack([pc[np.maximum(idx - 1, 0)], pc[idx]], axis=1)
        gap = np.min(np.abs(cand - x[:, None]), axis=1)
        assert np.all(gap + ch <= ph + 1e-12)


def test_anti_monotone_in_c():
    x0 = cd.make_lattice(np.eye(2))
    last_counts = []
    for c in (0.1, 0.2, 0.3, 0.4):
        cov = cd.survivor_cover(x0, W2, c, 0.5, 2.0, 2)
        last_counts.append(cov.levels[-1].count)
    assert all(last_counts[k] >= last_counts[k + 1] for k in range(3))


def test_deep_cusp_first_step_consistency():
    """k=1 survival equals direct center-orbit evaluation on the tiling grid (j + 1/2) side/M:
    deep in the cusp nothing survives, and from Z^2 at t = 2, 27 of 55 boxes do."""
    c, r = 0.25, 0.5
    side = r / 4.0
    for basis, t, kept in ((np.diag([math.exp(-3.0), math.exp(3.0)]), 1.0, 0), (np.eye(2), 2.0, 27)):
        cov = cd.survivor_cover(cd.make_lattice(basis), W2, c, r, t, 1)
        thresh = math.sqrt(c) / cov.safety
        m_ax = _per_axis_count(math.exp(2.0 * t))
        keep = []
        for h in (np.arange(m_ax) + 0.5) * side / m_ax:
            lat = cd.make_lattice(cd.g_t(W2, t) @ cd.u_A(float(h)) @ basis)
            if cd.delta_weighted(lat, W2) >= thresh:
                keep.append(h)
        got = np.sort(cov.levels[1].centers[:, 0])
        assert cov.levels[1].count == len(keep) == kept
        assert np.allclose(got, np.array(keep), atol=1e-12)


X037 = cd.make_lattice(np.array([[1.0, 0.37], [0.0, 1.0]]))


def _union_length(level):
    """Total length of the union of a 1-D level's closed kept boxes."""
    lo = np.sort(level.centers[:, 0]) - level.half_sides[0]
    hi = lo + 2.0 * level.half_sides[0]
    # a box starts a new run of the union when it begins past every earlier box's end
    starts = np.concatenate([[True], lo[1:] > np.maximum.accumulate(hi)[:-1]])
    run_ends = np.maximum.reduceat(hi, np.flatnonzero(starts))
    return float(np.sum(run_ends - lo[starts]))


@pytest.mark.parametrize("t", [1.0, 0.5])
def test_kept_boxes_do_not_overlap(t):
    """Children tile their parent: count x box length is the union length of the kept boxes at every level."""
    cov = cd.survivor_cover(X037, W2, 0.25, 0.5, t, 8)
    assert len(cov.levels) == 9 and not cov.truncated
    for lv in cov:
        assert lv.count * lv.box_size == pytest.approx(_union_length(lv), rel=1e-9), lv.k


def test_slope_at_most_ambient_dimension():
    """At t = 0.25 the h-line cover's box dimension stays at most 1, its ambient dimension."""
    cov = cd.survivor_cover(X037, W2, 0.25, 0.5, 0.25, 24)
    assert cd.box_dimension_fit(cov).slope <= 1.0


@pytest.mark.parametrize(
    ("t", "counts"),
    [
        (math.log(2.0) / 2.0, [1, 2, 4, 8, 16, 23, 46, 75, 132]),
        (math.log(3.0) / 2.0, [1, 3, 9, 18, 54, 122, 299, 740, 1786]),
    ],
    ids=["ln2/2", "ln3/2"],
)
def test_integer_refinement_counts(t, counts):
    """With e^{2t} an integer the Bowen boxes tile already: the level counts are those of the Bowen grid."""
    cov = cd.survivor_cover(X037, W2, 0.25, 0.5, t, 8)
    assert [lv.count for lv in cov] == counts


@pytest.mark.parametrize(
    ("w", "x0", "t", "k_max"),
    [
        *[(W2, X037, t, 3) for t in (0.5, 1.0, 1.5, 2.0, 2.25)],
        (W3, cd.make_lattice(np.eye(3)), 1.0, 2),
    ],
    ids=["t0.5", "t1", "t1.5", "t2", "t2.25", "1;0.3,0.7-t1"],
)
def test_boxes_within_bowen_radius(w, x0, t, k_max):
    """A level k box conjugated by g_{kt} has half side at most side/2, the radius `default_safety`
    covers, up to the relative 1e-9 by which `_per_axis_count` may round e^{lambda t} down."""
    side = cd.tessellation_new(w.m * w.n, 0.5).side
    lams = np.array([ik + jl for ik in w.i for jl in w.j])
    cov = cd.survivor_cover(x0, w, 0.1, 0.5, t, k_max)
    assert len(cov.levels) == k_max + 1
    for lv in cov:
        assert np.all(lv.half_sides * np.exp(lams * lv.k * t) <= side / 2.0 * (1.0 + 1e-9) ** lv.k), lv.k


def test_conservative_soundness(cover_c025):
    """h certified outside U(eps*safety) on the grid lies in a surviving box."""
    x0_basis = np.eye(2)
    eps, safety = cover_c025.eps, cover_c025.safety
    rng = np.random.default_rng(15)
    hs = rng.uniform(0.0, 0.125, 2000)
    certified = []
    for h in hs:
        ok = True
        for k in range(1, len(cover_c025.levels)):
            lat = cd.make_lattice(cd.g_t(W2, 2.0 * k) @ cd.u_A(float(h)) @ x0_basis)
            if cd.delta_weighted(lat, W2) < eps * safety:
                ok = False
                break
        if ok:
            certified.append(h)
        if len(certified) >= 100:
            break
    assert len(certified) >= 100
    for h in certified:
        for lv in cover_c025.levels:
            dist = np.abs(lv.centers[:, 0] - h)
            assert np.any(dist <= lv.half_sides[0] + 1e-12), (h, lv.k)


def test_budget_truncation(monkeypatch):
    x0 = cd.make_lattice(np.eye(2))
    monkeypatch.setattr(covering, "BOX_BUDGET", 50000)
    cov = cd.survivor_cover(x0, W2, 0.25, 0.5, 2.0, 8)
    assert cov.truncated
    assert [lv.count for lv in cov] == [1, 27, 1092]
    assert cov.total_boxes <= 50000


def test_survivor_validation():
    x0 = cd.make_lattice(np.eye(2))
    for args, field in [
        ((1.5, 0.5, 2.0, 2), "c"),
        ((0.25, 5.0, 2.0, 2), "r"),  # r above the cap
        ((0.25, -0.5, 2.0, 2), "r"),
        ((0.25, 0.5, -1.0, 2), "t"),
        ((0.25, 0.5, math.nan, 2), "t"),
        ((0.25, 0.5, 2.0, 0), "k-max"),
    ]:
        with pytest.raises(cd.ValidationError) as err:
            cd.survivor_cover(x0, W2, *args)
        assert err.value.field == field


def test_general_weights_cover_uses_x0():
    """The general-weights cover evaluates g_T u_h x0, not g_T u_h Z^d."""
    counts = {}
    for name, basis in (("Z3", np.eye(3)), ("diag", np.diag([math.exp(-2.0), 1.0, math.exp(2.0)]))):
        cov = cd.survivor_cover(cd.make_lattice(basis), W3, 0.1, 0.5, 1.0, 1)
        counts[name] = [lv.count for lv in cov]
    assert counts == {"Z3": [1, 24], "diag": [1, 0]}


def test_default_safety_m1n1():
    # (1 + n*side/2)^pmax = 1 + side/2 at m = n = 1
    assert abs(default_safety(W2, 0.125) - 1.0625) <= 1e-15


def test_cantor_fit_exact():
    counts = [2**k for k in range(1, 7)]
    sizes = [3.0**-k for k in range(1, 7)]
    fit = cd.box_dimension_fit(counts, sizes)
    assert abs(fit.slope - math.log(2.0) / math.log(3.0)) <= 1e-12
    assert fit.r2 >= 1.0 - 1e-12


def test_fit_degenerate():
    with pytest.raises(cd.DegenerateFit):
        cd.box_dimension_fit([2, 4], [0.5, 0.25])
    # one positive, finite size per count
    for sizes in ([0.5, 0.25], [0.5, 0.0, 0.125], [0.5, -0.25, 0.125], [0.5, math.inf, 0.125]):
        with pytest.raises(cd.ValidationError) as err:
            cd.box_dimension_fit([2, 4, 8], sizes)
        assert err.value.field == "sizes"


def test_fit_excludes_transient_level(cover_c025):
    fit = cd.box_dimension_fit(cover_c025)
    assert fit.levels_used[0] == 1  # level 0 is the basin transient
    assert 0.0 < fit.slope < 1.0
    assert fit.r2 > 0.999


def test_cf_oracle_pins():
    assert cd.cf_digit_oracle(1, 12) == 0.0
    assert abs(cd.cf_digit_oracle(2, 10) - 0.5312) <= 0.003
    assert abs(cd.cf_digit_oracle(3, 8) - 0.7056) <= 0.003
    assert abs(cd.cf_digit_oracle(4, 8) - 0.7889) <= 0.003


def test_cf_oracle_depth_stability():
    a = cd.cf_digit_oracle(2, 9)
    b = cd.cf_digit_oracle(2, 10)
    assert abs(a - b) <= 1e-3


def test_cf_oracle_monotone_in_N():
    vals = [cd.cf_digit_oracle(N, 7) for N in range(1, 6)]
    assert all(vals[k] < vals[k + 1] for k in range(4))


def test_cf_oracle_budget():
    with pytest.raises(cd.BudgetExceeded):
        cd.cf_digit_oracle(10, 8)
    with pytest.raises(cd.ValidationError) as err:
        cd.cf_digit_oracle(0, 8)
    assert err.value.field == "N"
    with pytest.raises(cd.ValidationError) as err:
        cd.cf_digit_oracle(3, 3)
    assert err.value.field == "depth"


@pytest.mark.parametrize("N, depth", [(3, 7), (2, 12)])
def test_cf_lengths_match_integer_recurrence(N, depth):
    """The float64 walk gives the lengths 1/(q_k (q_k + q_{k-1})) of exact Python-int denominators."""
    pairs = [(1, 0)]  # (q_0, q_{-1})
    want = []
    for k in range(1, depth + 1):
        pairs = [(a * q + qp, q) for a in range(1, N + 1) for q, qp in pairs]
        if k >= depth - 1:
            want.append(sorted(1.0 / (float(q) * float(q + qp)) for q, qp in pairs))
    got = [sorted(level.tolist()) for level in _cf_lengths(N, depth)]
    assert got == want


@pytest.mark.parametrize(
    "N, depth",
    [(2, 8), (2, 12), (2, 14), (2, 15), (2, 16), (3, 9), (3, 10), (3, 11), (3, 12)]
    + [(4, 8), (4, 9), (4, 10), (5, 8), (6, 7), (10, 6)],
)
def test_cf_root_equals_brentq(N, depth):
    """The Brent port returns the float that scipy's brentq returns, at the same bracket and tolerances."""
    from scipy.optimize import brentq

    l_prev, l_cur = _cf_lengths(N, depth)

    def f(s):
        return math.log(float(np.sum(l_cur**s))) - math.log(float(np.sum(l_prev**s)))

    assert cd.cf_digit_oracle(N, depth) == brentq(f, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16)


@pytest.mark.parametrize("N, depth", [(2, 14), (2, 15), (2, 16), (3, 11), (3, 12), (4, 10), (2, 5), (1, 9)])
def test_cf_oracle_prev_equals_two_oracles(N, depth):
    """One walk to `depth` gives the roots that separate walks to depth and depth - 1 give."""
    assert cd.cf_digit_oracle(N, depth, prev=True) == (cd.cf_digit_oracle(N, depth), cd.cf_digit_oracle(N, depth - 1))


def test_brent_root_needs_a_sign_change():
    """A bracket without a sign change is a package defect, not a bare ValueError."""
    with pytest.raises(cd.InvariantViolation, match=r"^no sign change on \[0, 1\]: f\(0\) = 1\.0, f\(1\) = 2\.0$"):
        covering._brent_root(lambda s: 1.0 + s)


def test_cf_oracle_memory():
    """The (4, 10) walk holds float64 denominators only: no int64 copies of the last two levels."""
    cd.cf_digit_oracle(2, 6)  # first-call set-up stays outside the measurement
    tracemalloc.start()
    try:
        cd.cf_digit_oracle(4, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_cf_oracle_shares_no_code_with_the_cover():
    """The CF-cylinder oracle, and every covering function it calls, never names the survivor cover,
    its kernel or anything of flows, lattices or haar: `dim --oracle` compares the two sides."""
    tree = ast.parse(inspect.getsource(covering))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("flows", "lattices", "haar")
        for alias in node.names
    }
    banned = {"survivor_cover", "sup_delta_flow_batch", "_reduce_block", "_delta_at_centers", "flows", "lattices", "haar"}
    banned |= imported
    seen, todo = set(), ["cf_digit_oracle"]
    while todo:
        name = todo.pop()
        seen.add(name)
        names = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names |= {(node.module or "").split(".")[-1]} | {a.asname or a.name for a in node.names}
        assert not names & banned, (name, sorted(names & banned))
        todo += [n for n in names if n in defs and n not in seen]
    assert "_cf_lengths" in seen
    assert {"T_LIMIT", "cusp_radius", "g_t", "u_A", "delta_weighted", "make_lattice"} <= imported
