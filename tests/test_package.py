"""Package surface: the public export list, the settable parameters and the unread names."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cuspdim as cd
from cuspdim import cli, covering, errors, haar

SRC = Path(cd.__file__).parent


def test_all_names_resolve_once():
    """Every name in __all__ exists on the package and none is listed twice."""
    assert len(cd.__all__) == len(set(cd.__all__))
    missing = [name for name in cd.__all__ if not hasattr(cd, name)]
    assert missing == []


def test_removed_names_stay_gone():
    """The orbit window lives in orbit_profile and the verdict in classify_from_profile;
    parameters that only tests set are module constants or derived values, not arguments;
    errors have one class per exit code, and the message names the field or the cap."""
    for name in (
        "FlowSpec",
        "dani_classify",
        "RankError",
        "DeterminantError",
        "DimensionMismatch",
        "UnsupportedDimension",
        "EnumerationBudgetExceeded",
        "CoefficientBudgetExceeded",
        "SamplerStall",
    ):
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
        (cd.survivor_cover, "budget"),
    ]:
        assert param not in inspect.signature(fn).parameters, (fn.__name__, param)
    for fn, param in [
        (covering.sup_delta_flow_batch, "coeffs"),
        (cd.orbit_profile, "t_max"),
        (cd.orbit_profile, "dt"),
    ]:
        assert inspect.signature(fn).parameters[param].default is inspect.Parameter.empty, (fn.__name__, param)
    assert not hasattr(cd.WeightVector, "equal")
    assert not hasattr(cli, "_version")
    with pytest.raises(cd.ValidationError, match="^basis: ") as err:
        cd.make_lattice(np.diag([2.0, 1.0]))
    assert not hasattr(err.value, "det")
    for cls, field in [(cd.Tessellation, "r"), (cd.BadVerdict, "c_target")]:
        assert field not in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, field)


def test_one_error_class_per_exit_code():
    """cuspdim.errors holds the base class and one class per exit code and kind."""
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {"CuspDimError", "ValidationError", "InvariantViolation", "DegenerateFit", "BudgetExceeded"}


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: importing the CLI loads none of it."""
    code = "import sys, cuspdim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


# one small run of each subcommand: oracle-cf and dim --oracle solve the CF root, nondiv takes the t quantile
SUBCOMMAND_RUNS = [
    ["delta"],
    ["bad", "--A", "0.5", "--c", "0.1"],
    ["orbit", "--A", "0.5", "--t-max", "5"],
    ["mu", "--eps", "0.1", "--n-samples", "2000"],
    ["nondiv", "--n-samples", "20000"],
    ["cover", "--k-max", "3", "--t", "1.0", "--c", "0.1"],
    ["dim", "--k-max", "5", "--t", "1.0", "--c", "0.1", "--oracle", "--oracle-n", "2", "--oracle-depth", "8"],
    ["oracle-cf", "--n-digit", "2", "--depth", "8"],
]


def test_every_subcommand_runs_without_scipy():
    """With scipy blocked from import, each subcommand exits 0 and no scipy module is loaded."""
    code = f"""
import os, sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
from cuspdim import cli
print([cli.main([*argv, "--no-timestamp", "--out", os.devnull]) for argv in {SUBCOMMAND_RUNS!r}])
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines() == [str([0] * len(SUBCOMMAND_RUNS)), "[]"]


def test_cli_import_loads_no_subprocess():
    """The report's version is `cuspdim.__version__`, not `git describe`: importing the CLI loads no subprocess."""
    code = "import sys, cuspdim.cli; print('subprocess' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_importlib_metadata():
    """The report's version comes from `cuspdim.__version__` alone, so importing the CLI skips importlib.metadata."""
    code = "import sys, cuspdim.cli; print('importlib.metadata' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"


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
