"""Haar sampling on the modular surface and measure estimates near the cusp."""

import concurrent.futures
import math
import os

import numpy as np
import pytest

import cuspdim as cd
from cuspdim import haar
from cuspdim import rng as rngmod
from cuspdim.haar import _bases, _perturbations, delta2_batch, gauss_reduce_batch, sample_batch

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


def _flow_bases(t, h):
    """g_t u_h Z^2 for each h: columns (e^t, 0) and (h e^t, e^-t)."""
    B = np.zeros((len(h), 2, 2))
    B[:, 0, 0] = math.exp(t)
    B[:, 0, 1] = h * math.exp(t)
    B[:, 1, 1] = math.exp(-t)
    return B


def test_delta2_batch_multipass_vs_shortest_vector():
    """One stack mixing flowed and Haar rows, which leave the active set at different passes."""
    rng = rngmod.stream(6, 9)
    x, y, theta, _ = sample_batch(rng, 120)
    parts = [_bases(x, y, theta)] + [_flow_bases(t, rng.uniform(-2.0, 2.0, 120)) for t in (4.5, 6.0)]
    B = np.concatenate(parts)[rng.permutation(360)]
    for norm in ("euclid", "sup"):
        got = delta2_batch(B, norm)
        for k in range(len(B)):
            want = cd.shortest_vector(cd.make_lattice(B[k]), norm).length
            assert abs(got[k] - want) <= 1e-9 * want, (k, norm, got[k], want)
    # deep in the cusp the answer is roundoff, but every row ends Lagrange-reduced
    u0, u1, w0, w1 = gauss_reduce_batch(_flow_bases(30.0, rng.uniform(-2.0, 2.0, 2000)))
    nu = u0 * u0 + u1 * u1
    assert np.all(nu <= w0 * w0 + w1 * w1)
    assert np.all(2.0 * np.abs(u0 * w0 + u1 * w1) <= nu)


def test_reduced_sup_min_float64_matches_the_candidate_loop():
    """On float64 pairs the evaluator is bit for bit the candidate loop it replaced in `delta2_batch`."""
    rng = rngmod.stream(4, 9)
    x, y, theta, _ = sample_batch(rng, 3000)
    B = np.concatenate([_bases(x, y, theta), _flow_bases(6.0, rng.uniform(-2.0, 2.0, 3000))])
    u0, u1, w0, w1 = gauss_reduce_batch(B)
    best = np.maximum(np.abs(u0), np.abs(u1))
    for v0, v1 in ((w0, w1), (u0 + w0, u1 + w1), (u0 - w0, u1 - w1)):
        best = np.minimum(best, np.maximum(np.abs(v0), np.abs(v1)))
    got = haar.reduced_sup_min(u0, u1, w0, w1)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), best.view(np.int64))
    assert np.array_equal(delta2_batch(B).view(np.int64), best.view(np.int64))


def test_reduced_sup_min_long_double_rounds_once():
    """Rounding each long-double component to float64 before abs and max gives the whole evaluation
    done in long double and rounded once; a component past float64's range rounds to inf."""
    LD = np.longdouble
    rng = np.random.default_rng(41)

    def comps():
        # float64 values plus a tail below their last bit, so the long-double components round
        return rng.standard_normal(5000).astype(LD) * (1 + rng.standard_normal(5000).astype(LD) * LD(2.0**-58))

    u0, u1, w0, w1 = comps(), comps(), comps(), comps()
    big = LD(2.0) ** 1100
    u0[0] = big  # past float64's range: the minimum is another candidate
    u0[1], u1[1], w0[1], w1[1] = big, LD(0), LD(0), -big  # every candidate past it: inf
    assert np.finfo(LD).nmant > 52 and not np.isfinite(float(big))
    with np.errstate(over="ignore"):
        sups = [np.maximum(np.abs(v0), np.abs(v1)) for v0, v1 in ((u0, u1), (w0, w1), (u0 + w0, u1 + w1), (u0 - w0, u1 - w1))]
        want = np.minimum.reduce(sups).astype(float)
    got = haar.reduced_sup_min(u0, u1, w0, w1)
    assert got.dtype == np.float64 and np.isfinite(got[0]) and got[1] == np.inf
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.count_nonzero(np.minimum.reduce(sups) != want) > 4000  # the inputs do carry bits float64 drops


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_delta2_batch_unreduced_row_raises():
    """A norm that underflows leaves a row unreduced: a typed error, not a NaN."""
    B = np.array([[[1.0, (5**0.5 - 1) / 2], [0.0, 1e-300]], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(cd.InvariantViolation, match="1 of 2 rows"):
        delta2_batch(B)
    with pytest.raises(cd.InvariantViolation, match="1 of 1 rows"):
        delta2_batch(B[:1])
    assert delta2_batch(B[1:]).tolist() == [1.0]
    assert delta2_batch(np.empty((0, 2, 2))).shape == (0,)


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


def test_chunked_map_caps_threads_at_cpu_count(monkeypatch):
    """A thread count past the CPU count asks for no more workers than CPUs (the fake pool starts no thread)."""
    asked = []

    class InOrderPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InOrderPool)
    out = rngmod.chunked_map(lambda rng, count: count, 2 * rngmod.CHUNK + 5, 0, stream_id=0, threads=10**6)
    assert out == [rngmod.CHUNK, rngmod.CHUNK, 5]
    assert all(n <= os.cpu_count() for n in asked)


def test_mu_scaling_slope():
    """log mu vs log eps slope is d = 2 within 0.15 at 10^6 samples."""
    fracs = [cd.estimate_mu_U(e, W2, 10**6, seed=0, threads=2).mean for e in (0.02, 0.04, 0.08)]
    slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(fracs), 1)[0]
    assert abs(slope - 2.0) <= 0.15


def _theta_z(norm):
    """Two-sample z of Pr[delta < 0.2] with theta as sampled against theta = 0 (50000 samples, seed 3)."""

    def fraction(zero_theta):
        def work(rng, count):
            x, y, theta, _ = sample_batch(rng, count)
            if zero_theta:
                theta = np.zeros_like(theta)
            return int(np.count_nonzero(delta2_batch(_bases(x, y, theta), norm) < 0.2))

        mean = sum(rngmod.chunked_map(work, 50000, 3, stream_id=1)) / 50000
        return mean, math.sqrt(mean * (1.0 - mean) / 50000)

    (a, sa), (b, sb) = fraction(False), fraction(True)
    return (a - b) / math.sqrt(sa**2 + sb**2 + 1e-30)


def test_rotation_invariance_euclid_vs_fixed_theta():
    """Euclid delta ignores theta: two-sample z stays within 3 sigma."""
    assert abs(_theta_z("euclid")) <= 3.0


def test_sup_requires_theta_sampling():
    """Quasinorm delta depends on theta: the no-theta shortcut is rejected."""
    assert abs(_theta_z("sup")) > 3.0


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

    with pytest.raises(cd.BudgetExceeded, match="^rejection sampler exceeded 1000120 proposals$"):
        sample_batch(ZeroRng(), 10)


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


def test_nondivergence_t_limit_and_accuracy_warning():
    x0 = cd.make_lattice(np.eye(2))
    grid = [0.02, 0.04, 0.08, 0.16]
    with pytest.raises(cd.ValidationError) as err:
        cd.nondivergence_profile(x0, W2, 800.0, grid, 100, seed=0)
    assert err.value.field == "t"
    for t in (-1.0, math.nan):
        with pytest.raises(cd.ValidationError) as err:
            cd.nondivergence_profile(x0, W2, t, grid, 100, seed=0)
        assert err.value.field == "t"
    for bad_grid in ([0.02, 0.04], [0.02, 0.04, -0.08]):
        with pytest.raises(cd.ValidationError) as err:
            cd.nondivergence_profile(x0, W2, 4.0, bad_grid, 100, seed=0)
        assert err.value.field == "eps-grid"
    # roundoff e^{2t} 2^-52 against 1e-3 min(eps): 3.6e-11 at t = 6, 2.3e-2 at t = 20
    assert cd.nondivergence_profile(x0, W2, 6.0, grid, 2000, seed=0).warning is None
    warn = cd.nondivergence_profile(x0, W2, 20.0, grid, 2000, seed=0).warning
    assert warn is not None and "t = 20" in warn


def test_pinned_outputs(monkeypatch):
    """Exact outputs at fixed seeds: they move if a stream, the draw order or the reduction's arithmetic does."""
    assert cd.estimate_mu_U(0.1, W2, 200000, seed=4, threads=2).hits == 2435
    x0 = cd.make_lattice(np.eye(2))
    fit = cd.nondivergence_profile(x0, W2, 5.0, [0.02, 0.04, 0.08, 0.16], 100000, seed=4, threads=2)
    assert fit.fractions == [0.03054, 0.00753, 0.00173, 0.0003]
    for r, want in ((0.8, (14, 27)), (2.0, (76, 810))):
        rep = cd.core_inclusion_check(0.3, r, W2, 200, 5, seed=0)
        assert (rep.violations, rep.renorm_rejects) == want
    monkeypatch.setattr(haar, "C11", 1e-3)
    with pytest.raises(cd.BudgetExceeded):
        cd.core_inclusion_check(0.3, 0.8, W2, 200, 5, seed=0)


def test_t_quantile_equals_stdtrit():
    """The slope interval's 0.975 t quantile matches scipy's stdtrit to 1e-12 relative for dof 1..2000 and 10^4..10^6."""
    from scipy.special import stdtrit

    dofs = np.concatenate((np.arange(1, 2001), [10**4, 10**5, 10**6]))
    got = np.array([haar._t_quantile_975(int(dof)) for dof in dofs])
    want = stdtrit(dofs, 0.975)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def _sequential_perturbations(prng, r, C11, count):
    """One candidate per draw of four normals, as a reference for the blocked draws."""
    out, rejects = [], 0
    for _ in range(count):
        for _try in range(1000):
            R = prng.normal(size=(2, 2))
            R /= np.linalg.svd(R, compute_uv=False)[0]
            g = np.eye(2) + r * R
            det = float(np.linalg.det(g))
            if det <= 0:
                rejects += 1
                continue
            g /= math.sqrt(det)
            op = max(
                float(np.linalg.svd(g - np.eye(2), compute_uv=False)[0]),
                float(np.linalg.svd(np.linalg.inv(g) - np.eye(2), compute_uv=False)[0]),
            )
            if op > C11 * r:
                rejects += 1
                continue
            break
        else:
            raise cd.BudgetExceeded("reference gave up")
        out.append(g)
    return np.array(out).reshape(-1, 2, 2), rejects


# C11 = 0.1 at r = 2 accepts about one candidate in 300, so the 58 pairs span
# many blocks; in stream (5, 5) the 59th accepted candidate follows more than
# 1000 rejections in a row
@pytest.mark.parametrize("r, C11, count", [(0.0, 2.0, 300), (0.05, 2.0, 700), (2.0, 2.0, 1500), (2.0, 0.1, 58)])
def test_batched_perturbations_match_sequential_draws(r, C11, count):
    got, got_rejects = _perturbations(rngmod.stream(5, 5), r, C11, count)
    want, want_rejects = _sequential_perturbations(rngmod.stream(5, 5), r, C11, count)
    assert np.array_equal(got, want) and got_rejects == want_rejects


def test_batched_perturbations_give_up_where_sequential_draws_do():
    for draw in (_perturbations, _sequential_perturbations):
        with pytest.raises(cd.BudgetExceeded):
            draw(rngmod.stream(5, 5), 2.0, 0.1, 59)


def test_nondivergence_degenerate():
    x0 = cd.make_lattice(np.eye(2))
    with pytest.raises(cd.DegenerateFit):
        cd.nondivergence_profile(x0, W2, 0.0, [0.3, 0.5, 0.7], 500, seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: cd.estimate_mu_U(0.1, W2, n, seed=0),
        lambda n: cd.sampler_calibration(n, seed=0),
        lambda n: cd.nondivergence_profile(cd.make_lattice(np.eye(2)), W2, 4.0, [0.02, 0.04, 0.08], n, seed=0),
    ],
    ids=["estimate_mu_U", "sampler_calibration", "nondivergence_profile"],
)
def test_sample_count_must_be_positive(call, n):
    with pytest.raises(cd.ValidationError) as err:
        call(n)
    assert err.value.field == "n-samples"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_samples, n_perturb, field", [(0, 5, "n-samples"), (-3, 5, "n-samples"), (2.5, 5, "n-samples"), (200, -1, "n-perturb"), (200, 0, "n-perturb")])
def test_inclusion_counts_must_be_positive_integers(n_samples, n_perturb, field):
    """A bad count is refused before any sampling, not left to a bare numpy error."""
    with pytest.raises(cd.ValidationError) as err:
        cd.core_inclusion_check(0.3, 0.05, W2, n_samples, n_perturb, seed=0)
    assert err.value.field == field


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
    with pytest.raises(cd.ValidationError, match="^dim: Haar sampling is implemented for d = 2 only$"):
        cd.estimate_mu_U(0.1, cd.WeightVector((1.0,), (0.5, 0.5)), 100, seed=0)
