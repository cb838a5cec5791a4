"""Package surface: the public export list, the settable parameters and the unread names."""

import ast
import dataclasses
import inspect
from pathlib import Path

import cuspdim as cd
from cuspdim import covering, haar

SRC = Path(cd.__file__).parent


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
        (cd.admissible_radius, "C11"),
        (cd.core_inclusion_check, "C11"),
        (cd.make_lattice, "tol"),
    ]:
        assert param not in inspect.signature(fn).parameters, (fn.__name__, param)
    for fn, param in [
        (covering.sup_delta_flow_batch, "coeffs"),
        (cd.orbit_profile, "t_max"),
        (cd.orbit_profile, "dt"),
    ]:
        assert inspect.signature(fn).parameters[param].default is inspect.Parameter.empty, (fn.__name__, param)
    assert not hasattr(cd.WeightVector, "equal")
    assert not hasattr(cd.DeterminantError(2.0, 1e-9), "det")
    for cls, field in [(cd.Tessellation, "r"), (cd.BadVerdict, "c_target")]:
        assert field not in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, field)


def test_no_unread_module_names():
    """Every module-level constant and private function of src is read somewhere in src:
    as a loaded name, an attribute name or an __all__ entry.  Dunder names are skipped."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(elt.value for elt in node.value.elts)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined.append((module, node.name))
    unread = [(module, name) for module, name in defined if not name.startswith("__") and name not in read]
    assert unread == []
