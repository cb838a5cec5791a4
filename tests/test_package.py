"""Package surface: the public export list and the settable parameters."""

import inspect

import cuspdim as cd
from cuspdim import haar


def test_all_names_resolve_once():
    """Every name in __all__ exists on the package and none is listed twice."""
    assert len(cd.__all__) == len(set(cd.__all__))
    missing = [name for name in cd.__all__ if not hasattr(cd, name)]
    assert missing == []


def test_removed_names_stay_gone():
    """The orbit window lives in orbit_profile and the verdict in classify_from_profile;
    parameters that only tests set are module constants or derived values, not arguments."""
    for name in ("FlowSpec", "dani_classify"):
        assert not hasattr(cd, name)
        assert name not in cd.__all__
    for fn, param in [
        (cd.shortest_vector, "budget"),
        (cd.delta, "budget"),
        (cd.shortest_vector_weighted, "budget"),
        (cd.delta_weighted, "budget"),
        (cd.survivor_cover, "safety"),
        (cd.box_dimension_fit, "include_transient"),
        (haar.sample_batch, "cap"),
        (cd.estimate_mu_U, "norm"),
        (cd.estimate_mu_U, "theta_mode"),
        (cd.sampler_calibration, "y_cuts"),
    ]:
        assert param not in inspect.signature(fn).parameters, (fn.__name__, param)
