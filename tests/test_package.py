"""Package surface: the public export list."""

import cuspdim as cd


def test_all_names_resolve_once():
    """Every name in __all__ exists on the package and none is listed twice."""
    assert len(cd.__all__) == len(set(cd.__all__))
    missing = [name for name in cd.__all__ if not hasattr(cd, name)]
    assert missing == []
