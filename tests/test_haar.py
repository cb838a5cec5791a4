"""Haar sampling on the modular surface and measure estimates near the cusp."""

import math

import numpy as np
import pytest

import cuspdim as cd
from cuspdim import rng as rngmod
from cuspdim.haar import _bases, delta2_batch, sample_batch

W2 = cd.EQUAL_WEIGHTS_2D
MINKOWSKI = 2.0 / math.sqrt(math.pi)


def test_sample_domain_invariants():
    rng = rngmod.stream(0, 9)
    x, y, theta, _ = sample_batch(rng, 20000)
    assert np.all(np.abs(x) <= 0.5)
    assert np.all(x * x + y * y >= 1.0)
    assert np.all((0.0 <= theta) & (theta < math.pi))
    assert np.all(np.abs(np.linalg.det(_bases(x, y, theta)) - 1.0) <= 1e-9)


def test_tail_matches_analytic():
    """Pr[y >= c] = 3/(c pi) for c >= 1, within 4 stderr at 10^6 samples."""
    n = 10**6
    cal = cd.sampler_calibration(n, seed=0, threads=2)
    for frac, want in zip(cal["tail_fractions"], cal["tail_analytic"]):
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(frac - want) <= 4.0 * se, (frac, want)


def test_acceptance_rate_window():
    cal = cd.sampler_calibration(200000, seed=0)
    rate = cal["acceptance_rate"]
    assert 0.5 < rate < 1.0
    # analytic value pi sqrt(3)/6
    assert abs(rate - math.pi * math.sqrt(3.0) / 6.0) <= 0.005


def test_minkowski_bound_every_sample():
    cal = cd.sampler_calibration(200000, seed=0)
    assert cal["max_delta_euclid"] <= MINKOWSKI + 1e-9


def test_delta2_batch_vs_enumeration():
    """Reduction-based shortest length equals brute enumeration, both norms."""
    rng = rngmod.stream(2, 9)
    x, y, theta, _ = sample_batch(rng, 300)
    B = _bases(x, y, theta)
    for norm in ("euclid", "sup"):
        got = delta2_batch(B, norm)
        rng2 = np.arange(-40, 41)
        C = np.stack(np.meshgrid(rng2, rng2, indexing="ij"), axis=-1).reshape(-1, 2)
        C = C[np.any(C != 0, axis=1)]
        for k in range(B.shape[0]):
            V = C @ B[k].T
            if norm == "euclid":
                want = float(np.min(np.sqrt(np.sum(V * V, axis=1))))
            else:
                want = float(np.min(np.max(np.abs(V), axis=1)))
            assert abs(got[k] - want) <= 1e-12


def test_mu_examples():
    est = cd.estimate_mu_U(0.0, W2, 1000, seed=0)
    assert est.mean == 0.0 and est.prediction is None
    est = cd.estimate_mu_U(1.5, W2, 1000, seed=0)
    assert est.mean == 1.0 and est.prediction is None  # sup delta <= 1 always
    est = cd.estimate_mu_U(0.05, W2, 10**5, seed=0)
    pred = cd.siegel_prediction(0.05, W2)
    assert abs(est.mean - pred) <= 3.0 * est.stderr + 10.0 * 0.05**4


def test_siegel_prediction_value():
    assert abs(cd.siegel_prediction(0.05, W2) - 12.0 * 0.05**2 / math.pi**2) <= 1e-15


def test_mu_monotone_in_eps():
    """Common random numbers: the mean is exactly nondecreasing in eps."""
    means = [
        cd.estimate_mu_U(e, W2, 20000, seed=7).mean for e in (0.05, 0.1, 0.2, 0.4)
    ]
    assert all(means[k] <= means[k + 1] for k in range(3))


def test_mu_threads_invariant():
    a = cd.estimate_mu_U(0.1, W2, 50000, seed=5, threads=1)
    b = cd.estimate_mu_U(0.1, W2, 50000, seed=5, threads=4)
    assert a.hits == b.hits and a.mean == b.mean


def test_mu_scaling_slope():
    """log mu vs log eps slope is d = 2 within 0.15 at 10^6 samples."""
    fracs = [cd.estimate_mu_U(e, W2, 10**6, seed=0, threads=2).mean for e in (0.02, 0.04, 0.08)]
    slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(fracs), 1)[0]
    assert abs(slope - 2.0) <= 0.15


def test_rotation_invariance_euclid_vs_fixed_theta():
    """Euclid delta ignores theta: two-sample z stays within 3 sigma."""
    a = cd.estimate_mu_U(0.2, W2, 50000, seed=3, norm="euclid")
    b = cd.estimate_mu_U(0.2, W2, 50000, seed=3, norm="euclid", theta_mode="zero")
    z = (a.mean - b.mean) / math.sqrt(a.stderr**2 + b.stderr**2 + 1e-30)
    assert abs(z) <= 3.0


def test_sup_requires_theta_sampling():
    """Quasinorm delta depends on theta: the no-theta shortcut is rejected."""
    a = cd.estimate_mu_U(0.2, W2, 50000, seed=3, norm="quasi")
    b = cd.estimate_mu_U(0.2, W2, 50000, seed=3, norm="quasi", theta_mode="zero")
    z = (a.mean - b.mean) / math.sqrt(a.stderr**2 + b.stderr**2 + 1e-30)
    assert abs(z) > 3.0


def test_small_count_warning():
    est = cd.estimate_mu_U(0.005, W2, 20000, seed=0)
    if 0 < est.hits < 20:
        assert est.warning is not None


def test_sampler_stall():
    class ZeroRng:
        def random(self, n):
            return np.zeros(n)  # y pinned at sqrt(3)/2, inside the circle

        def uniform(self, lo, hi, n):
            return np.zeros(n)

    with pytest.raises(cd.SamplerStall):
        sample_batch(ZeroRng(), 10, cap=5000)


def test_nondivergence_t0_and_saturation():
    """t=0: no vector below sup norm 1; eps above Minkowski: all h inside."""
    x0 = cd.make_lattice(np.eye(2))
    fit = cd.nondivergence_profile(x0, W2, 0.0, [0.5, 1.05, 1.2, 1.5], 2000, seed=0)
    by_eps = dict(zip(fit.eps_grid, fit.fractions))
    assert by_eps[0.5] == 0.0
    assert by_eps[1.2] == 1.0 and by_eps[1.5] == 1.0


def test_nondivergence_scaling_exponent():
    x0 = cd.make_lattice(np.eye(2))
    grid = [0.02, 0.0283, 0.04, 0.0566, 0.08, 0.113, 0.16]
    fit = cd.nondivergence_profile(x0, W2, 4.0, grid, 10**5, seed=0, threads=2)
    half = (fit.slope_ci[1] - fit.slope_ci[0]) / 2.0
    assert fit.slope >= 1.0 - half
    assert half <= 0.2


def test_nondivergence_degenerate():
    x0 = cd.make_lattice(np.eye(2))
    with pytest.raises(cd.DegenerateFit):
        cd.nondivergence_profile(x0, W2, 0.0, [0.3, 0.5, 0.7], 500, seed=0)


def test_admissible_radius_value():
    # (2^alpha - 1)/(d C11) eps^max(m,n) with alpha=1, d=2, C11=2
    assert abs(cd.admissible_radius(0.3, W2) - (1.0 / 4.0) * 0.3) <= 1e-15


def test_inclusion_r_zero():
    rep = cd.core_inclusion_check(0.3, 0.0, W2, 200, 5, seed=0)
    assert rep.violations == 0 and rep.pairs == 1000


def test_inclusion_half_admissible():
    """Admissible-range perturbations never leave U(eps): zero violations."""
    r = cd.admissible_radius(0.3, W2) / 2.0
    rep = cd.core_inclusion_check(0.3, r, W2, 2000, 5, seed=0)
    assert rep.within_admissible
    assert rep.pairs == 10000
    assert rep.violations == 0


def test_inclusion_informational_above_bound():
    rep = cd.core_inclusion_check(0.3, 0.3, W2, 200, 5, seed=0)
    assert not rep.within_admissible  # violations permitted, only counted
    assert rep.pairs == 1000


def test_validation_errors():
    with pytest.raises(cd.ValidationError):
        cd.estimate_mu_U(-0.1, W2, 100, seed=0)
    with pytest.raises(cd.ValidationError):
        cd.estimate_mu_U(0.1, W2, 100, seed=0, norm="sup")
    with pytest.raises(cd.UnsupportedDimension):
        cd.estimate_mu_U(0.1, cd.WeightVector((1.0,), (0.5, 0.5)), 100, seed=0)
