"""Tessellation counts, survivor covers, dimension fits, and the cylinder oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspdim as cd
from cuspdim import covering
from cuspdim.covering import (
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
    with pytest.raises(cd.CoefficientBudgetExceeded):
        sup_delta_flow_batch(np.array([1.0 / math.pi]), 23.0, np.eye(2), _identity_rows(1))


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
    """k=1 survival at a deep-cusp x0 equals direct center-orbit evaluation."""
    B0 = np.diag([math.exp(-3.0), math.exp(3.0)])
    x0 = cd.make_lattice(B0)
    c, r, t = 0.25, 0.5, 1.0
    cov = cd.survivor_cover(x0, W2, c, r, t, 1)
    eps = math.sqrt(c)
    side = r / 4.0
    thresh = eps / cov.safety
    m_ax = _per_axis_count(math.exp(2.0 * t))
    cs = side * math.exp(-2.0 * t)
    centers = np.minimum(np.arange(m_ax) * cs, side - cs) + cs / 2.0
    keep = []
    for h in centers:
        lat = cd.make_lattice(cd.g_t(W2, t) @ cd.u_A(float(h)) @ B0)
        if cd.delta_weighted(lat, W2) >= thresh:
            keep.append(h)
    got = np.sort(cov.levels[1].centers[:, 0])
    assert cov.levels[1].count == len(keep)
    assert np.allclose(got, np.array(keep), atol=1e-12)


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


def test_budget_truncation():
    x0 = cd.make_lattice(np.eye(2))
    cov = cd.survivor_cover(x0, W2, 0.25, 0.5, 2.0, 8, budget=50000)
    assert cov.truncated
    assert [lv.count for lv in cov] == [1, 27, 1092]
    assert cov.total_boxes <= 50000


def test_survivor_validation():
    x0 = cd.make_lattice(np.eye(2))
    for args, budget, field in [
        ((1.5, 0.5, 2.0, 2), 100, "c"),
        ((0.25, 5.0, 2.0, 2), 100, "r"),  # r above the cap
        ((0.25, -0.5, 2.0, 2), 100, "r"),
        ((0.25, 0.5, -1.0, 2), 100, "t"),
        ((0.25, 0.5, math.nan, 2), 100, "t"),
        ((0.25, 0.5, 2.0, 0), 100, "k-max"),
        ((0.25, 0.5, 2.0, 2), 0, "budget"),
        ((0.25, 0.5, 2.0, 2), 2.5, "budget"),
    ]:
        with pytest.raises(cd.ValidationError) as err:
            cd.survivor_cover(x0, W2, *args, budget=budget)
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
