"""One rule per kind of input: every count goes through `errors.require_int`, and
every real-valued range refuses nan and inf with a ValidationError naming its field."""

import math

import numpy as np
import pytest

import cuspdim as cd
from cuspdim import covering, flows, haar
from cuspdim.errors import require_int

W2 = cd.EQUAL_WEIGHTS_2D
Z2 = cd.make_lattice(np.eye(2))
TESS = covering.tessellation_new(1, 0.5)

# every count parameter of the library, as (field, call with that count set to n)
COUNT_CALLS = {
    "q-bound": lambda n: flows.direct_bad_constant(0.5, W2, n),
    "L": lambda n: covering.tessellation_new(n, 0.5),
    "k-max": lambda n: covering.survivor_cover(Z2, W2, 0.25, 0.5, 1.0, n),
    "N": lambda n: covering.cf_digit_oracle(n, 5),
    "depth": lambda n: covering.cf_digit_oracle(2, n),
    "n-samples/estimate_mu_U": lambda n: haar.estimate_mu_U(0.1, W2, n, seed=0),
    "n-samples/sampler_calibration": lambda n: haar.sampler_calibration(n, seed=0),
    "n-samples/nondivergence_profile": lambda n: haar.nondivergence_profile(Z2, W2, 4.0, [0.02, 0.04, 0.08], n, seed=0),
    "n-samples/core_inclusion_check": lambda n: haar.core_inclusion_check(0.3, 0.05, W2, n, 2, seed=0),
    "n-perturb": lambda n: haar.core_inclusion_check(0.3, 0.05, W2, 20, n, seed=0),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, math.nan, math.inf], ids=["0", "-1", "2.5", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_count_refused_naming_its_field(name, value):
    """Nothing but a ValidationError naming the count comes out, before any work."""
    with pytest.raises(cd.ValidationError) as err:
        COUNT_CALLS[name](value)
    assert err.value.field == name.split("/")[0]


def test_require_int_returns_int():
    assert require_int("k", 3.0) == 3 and type(require_int("k", 3.0)) is int
    assert require_int("k", np.int64(7)) == 7
    assert require_int("depth", 4, least=4) == 4
    for bad in ("3", None, [3]):
        with pytest.raises(cd.ValidationError):
            require_int("k", bad)


def test_mu_divides_by_the_count_it_draws():
    """An integral float count gives the same estimate as the int; 1000.9 is refused, not drawn as 1000."""
    assert haar.estimate_mu_U(0.5, W2, 1000.0, seed=0) == haar.estimate_mu_U(0.5, W2, 1000, seed=0)
    with pytest.raises(cd.ValidationError):
        haar.estimate_mu_U(0.5, W2, 1000.9, seed=0)


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: covering.tessellation_new(1, math.nan), "r", id="tessellation_new-r-nan"),
        pytest.param(lambda: covering.tessellation_new(1, math.inf), "r", id="tessellation_new-r-inf"),
        pytest.param(lambda: covering.count_S_rt(TESS, W2, math.nan), "t", id="count_S_rt-t-nan"),
        pytest.param(lambda: covering.count_S_rt(TESS, W2, math.inf), "t", id="count_S_rt-t-inf"),
        pytest.param(lambda: covering.count_S_rt_brute(TESS, W2, math.nan), "t", id="count_S_rt_brute-t-nan"),
        pytest.param(lambda: covering.count_S_rt_brute(TESS, W2, math.inf), "t", id="count_S_rt_brute-t-inf"),
        pytest.param(lambda: covering.lemma61_bound(TESS, W2, 1.0, math.nan), "K3", id="lemma61_bound-K3-nan"),
        pytest.param(lambda: covering.lemma61_bound(TESS, W2, 1.0, math.inf), "K3", id="lemma61_bound-K3-inf"),
        pytest.param(lambda: covering.survivor_cover(Z2, W2, 0.25, 0.5, math.inf, 2), "t", id="survivor_cover-t-inf"),
        pytest.param(lambda: covering.survivor_cover(Z2, W2, 0.25, 0.5, 400.0, 2), "t", id="survivor_cover-t-overflow"),
        pytest.param(lambda: haar.core_inclusion_check(0.3, math.nan, W2, 20, 2, seed=0), "r", id="core_inclusion_check-r-nan"),
        pytest.param(lambda: haar.core_inclusion_check(math.nan, 0.05, W2, 20, 2, seed=0), "eps", id="core_inclusion_check-eps-nan"),
        pytest.param(lambda: haar.core_inclusion_check(0.0, 0.05, W2, 20, 2, seed=0), "eps", id="core_inclusion_check-eps-0"),
        pytest.param(lambda: haar.estimate_mu_U(math.inf, W2, 100, seed=0), "eps", id="estimate_mu_U-eps-inf"),
        pytest.param(lambda: haar.nondivergence_profile(Z2, W2, 4.0, [math.nan, 0.1, 0.2, 0.3], 100, seed=0), "eps-grid", id="nondivergence_profile-eps-nan"),
        pytest.param(lambda: haar.nondivergence_profile(Z2, W2, 4.0, [math.inf, 0.1, 0.2], 100, seed=0), "eps-grid", id="nondivergence_profile-eps-inf"),
        pytest.param(lambda: flows.orbit_profile(0.5, W2, 5.0, math.inf), "dt", id="orbit_profile-dt-inf"),
        pytest.param(lambda: cd.make_lattice([[1.0, math.nan], [0.0, 1.0]]), "basis", id="make_lattice-nan"),
        pytest.param(lambda: cd.make_lattice([[1.0, math.inf], [0.0, 1.0]]), "basis", id="make_lattice-inf"),
        pytest.param(lambda: cd.WeightVector((math.nan,), (1.0,)), "weights", id="WeightVector-nan"),
        pytest.param(lambda: cd.WeightVector((1.0,), (math.inf, -math.inf)), "weights", id="WeightVector-inf"),
    ],
)
def test_real_ranges_refuse_nan_and_inf(call, field):
    """nan and inf fail the range check itself: no bare numpy or math error, no warning, no long sampling."""
    with pytest.raises(cd.ValidationError) as err:
        call()
    assert err.value.field == field


# the five covering functions that exponentiate the flow time, each with t set to the given value
FLOW_TIME_CALLS = {
    "count_S_rt": lambda t: covering.count_S_rt(TESS, W2, t),
    "count_S_rt_brute": lambda t: covering.count_S_rt_brute(TESS, W2, t),
    "lemma61_bound": lambda t: covering.lemma61_bound(TESS, W2, t, 1.0),
    "calibrate_K3": lambda t: covering.calibrate_K3(TESS, W2, [1.0, t]),
    "survivor_cover": lambda t: covering.survivor_cover(Z2, W2, 0.25, 0.5, t, 2),
}


@pytest.mark.parametrize("t", [400.0, math.nan, math.inf, -1.0], ids=["400", "nan", "inf", "-1"])
@pytest.mark.parametrize("name", sorted(FLOW_TIME_CALLS))
def test_flow_time_capped(name, t):
    """A t at which some e^((i_k + j_l) t) overflows float64 (t > 354.9 at weights (1; 1)), or a
    negative, nan or inf t, is a ValidationError naming t, not an OverflowError or a nan."""
    with pytest.raises(cd.ValidationError, match=r"^t: must be (nonnegative|positive) with e\^\(\(i_k \+ j_l\) t\) finite: need t <= 354\.891$"):
        FLOW_TIME_CALLS[name](t)


W3 = cd.WeightVector((1.0,), (0.5, 0.5))
TESS2 = covering.tessellation_new(2, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t: covering.lemma61_bound(TESS2, W3, t, 1.0), id="lemma61_bound"),
        pytest.param(lambda t: covering.calibrate_K3(TESS2, W3, [1.0, t]), id="calibrate_K3"),
    ],
)
def test_volume_ratio_time_capped(call):
    """At weights (1; 0.5, 0.5) the bound forms e^(3 t): t = 300 passes the per-rate cap 709.78 / 1.5 but not
    709.78 / 3, and is a ValidationError naming that cap, not an OverflowError; the count keeps its own cap."""
    with pytest.raises(cd.ValidationError, match=r"^t: must be nonnegative with .* finite: need t <= 236\.594$"):
        call(300.0)
    assert covering.count_S_rt(TESS2, W3, 300.0) > 0


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda tess: covering.count_S_rt(tess, W2, 1.0), id="count_S_rt"),
        pytest.param(lambda tess: covering.count_S_rt_brute(tess, W2, 1.0), id="count_S_rt_brute"),
        pytest.param(lambda tess: covering.lemma61_bound(tess, W2, 1.0, 1.0), id="lemma61_bound"),
        pytest.param(lambda tess: covering.calibrate_K3(tess, W2, [0.5, 1.0]), id="calibrate_K3"),
    ],
)
def test_tessellation_dimension_checked(call):
    """Each consumer of a tessellation refuses one whose L is not the weights' m n (an L = 2 tiling at weights (1; 1))."""
    with pytest.raises(cd.ValidationError, match=r"^dim: tessellation L=2 != m\*n=1$"):
        call(TESS2)
    call(TESS)


def test_inclusion_pairs_capped_before_sampling(monkeypatch):
    """More than PAIR_BUDGET sample-perturbation pairs exit 3 naming the cap before any sample is drawn."""

    def no_draw(*args):
        raise AssertionError("sampled before the pair cap was checked")

    monkeypatch.setattr(haar, "PAIR_BUDGET", 39)
    monkeypatch.setattr(haar, "sample_batch", no_draw)
    with pytest.raises(cd.BudgetExceeded, match="^40 sample-perturbation pairs, budget is 39$"):
        haar.core_inclusion_check(0.3, 0.05, W2, 20, 2, seed=0)


def test_inclusion_draws_capped_before_sampling(monkeypatch):
    """An eps whose U(eps/2) needs more than DRAW_BUDGET expected Haar draws exits 3 before any is drawn:
    20 samples at eps = 1e-3 expect 20 pi^2 / (3e-6) ~ 6.58e7 draws, over a cap of 6e7 and under the real 1e8."""

    def no_draw(*args):
        raise AssertionError("sampled before the draw cap was checked")

    budget = haar.DRAW_BUDGET
    monkeypatch.setattr(haar, "sample_batch", no_draw)
    monkeypatch.setattr(haar, "DRAW_BUDGET", 6 * 10**7)
    with pytest.raises(cd.BudgetExceeded, match=r"^about 6\.58e\+07 Haar draws to collect 20 samples inside"):
        haar.core_inclusion_check(1e-3, 0.0, W2, 20, 1, seed=0)
    monkeypatch.setattr(haar, "DRAW_BUDGET", budget)
    with pytest.raises(AssertionError, match="^sampled before"):  # admitted: it starts drawing
        haar.core_inclusion_check(1e-3, 0.0, W2, 20, 1, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda n: haar.estimate_mu_U(0.1, W2, n, seed=0), id="estimate_mu_U"),
        pytest.param(lambda n: haar.sampler_calibration(n, seed=0), id="sampler_calibration"),
        pytest.param(lambda n: haar.nondivergence_profile(Z2, W2, 1.0, [0.1, 0.2, 0.4], n, seed=0), id="nondivergence_profile"),
    ],
)
def test_sample_count_capped_before_sampling(monkeypatch, call):
    """A Monte Carlo sample count above DRAW_BUDGET exits 3 naming the cap before any chunk is planned or drawn."""

    def no_work(*args, **kwargs):
        raise AssertionError("worked before the sample cap was checked")

    monkeypatch.setattr(haar, "DRAW_BUDGET", 1 << 16)
    monkeypatch.setattr(haar.rngmod, "chunked_map", no_work)
    with pytest.raises(cd.BudgetExceeded, match="^65537 samples, budget is 65536$"):
        call((1 << 16) + 1)
    with pytest.raises(AssertionError, match="^worked before"):  # admitted at the cap
        call(1 << 16)


def test_eps_grid_capped_before_sampling(monkeypatch):
    """An eps grid one value over EPS_GRID_MAX exits 1 naming `eps-grid` before any chunk is drawn."""

    def no_work(*args, **kwargs):
        raise AssertionError("worked before the eps-grid cap was checked")

    monkeypatch.setattr(haar.rngmod, "chunked_map", no_work)
    grid = np.geomspace(0.01, 0.5, haar.EPS_GRID_MAX + 1).tolist()
    with pytest.raises(cd.ValidationError, match=f"^eps-grid: {haar.EPS_GRID_MAX + 1} epsilon values, at most {haar.EPS_GRID_MAX}$"):
        haar.nondivergence_profile(Z2, W2, 1.0, grid, 1000, seed=0)
    with pytest.raises(AssertionError, match="^worked before"):  # admitted at the cap
        haar.nondivergence_profile(Z2, W2, 1.0, grid[:-1], 1000, seed=0)


def test_brute_count_budget_checked_first():
    """At weights (1; 1) and t = 10 one axis has 2 ceil(e^20) + 5 translates: refused before the walk."""
    with pytest.raises(cd.BudgetExceeded, match="^970330397 translates on one axis, budget is 100000000$"):
        covering.count_S_rt_brute(TESS, W2, 10.0)


@pytest.mark.parametrize("bad", [4.5, math.nan, -4])
def test_fit_counts_are_integers_ge_0(bad):
    """The counts of a dimension fit go through the same rule, with 0 allowed: never truncated."""
    with pytest.raises(cd.ValidationError) as err:
        cd.box_dimension_fit([2, bad, 8], [0.5, 0.25, 0.125])
    assert err.value.field == "counts"


def test_non_finite_basis_message():
    """A non-finite basis is refused as such, before the determinant is formed."""
    for v in (math.nan, math.inf):
        with pytest.raises(cd.ValidationError, match="entries must be finite"):
            cd.make_lattice([[1.0, v], [0.0, 1.0]])


def test_weight_powers():
    """WeightVector.powers holds m i_k then n j_l, the exponents the quasinorm and its box read."""
    w = cd.WeightVector((0.4, 0.6), (0.3, 0.7))
    assert w.powers.tolist() == [2 * 0.4, 2 * 0.6, 2 * 0.3, 2 * 0.7]
    assert not w.powers.flags.writeable
    assert w == cd.WeightVector((0.4, 0.6), (0.3, 0.7)) and hash(w) == hash(cd.WeightVector((0.4, 0.6), (0.3, 0.7)))
    v = np.array([0.3, -0.2, 0.5, 0.9])
    want = max(abs(x) ** (1.0 / p) for x, p in zip(v, [0.8, 1.2, 0.6, 1.4]))
    assert cd.quasinorm(v, w) == pytest.approx(want, rel=1e-15)
