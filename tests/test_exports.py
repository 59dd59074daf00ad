"""The package's public names: every export resolves, listed once, in
order, has a caller outside the unit tests, and no numerical entry point
takes a method option, and the kernel keeps no cache across calls."""

import inspect
import pathlib
import re

import numpy as np

import coulscat
from coulscat import exact, multipole, specfun

ROOT = pathlib.Path(__file__).resolve().parent.parent
# where an export's caller may live: the package itself, the README's tour
# and the paper's acceptance criteria
CALLER_FILES = ([path for path in sorted(ROOT.glob("src/coulscat/*.py"))
                 if path.name != "__init__.py"]
                + [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"])

# step, tolerance and term-budget names: each evaluator takes its physical
# inputs only. schrodinger_residual's h stays: the step is what that
# diagnostic studies.
METHOD_OPTIONS = {"h", "tol", "max_terms", "n_terms", "r_end", "r_eval"}
ALLOWED = {("schrodinger_residual", "h")}


def test_all_exports_resolve_sorted_unique():
    names = coulscat.__all__
    missing = [n for n in names if not hasattr(coulscat, n)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_every_public_name_is_exported():
    # a name imported into the package but missing from __all__ escapes
    # `from coulscat import *` and every check here
    public = {name for name, value in vars(coulscat).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - set(coulscat.__all__)) == []


def test_every_export_has_a_non_test_caller():
    # a whole-word mention on any line of CALLER_FILES but the name's own
    # def or class line
    lines = [line for path in CALLER_FILES
             for line in path.read_text().splitlines()]

    def has_caller(name):
        word = re.compile(r"\b%s\b" % re.escape(name))
        own = re.compile(r"\s*(def|class)\s+%s\b" % re.escape(name))
        return any(word.search(line) and not own.match(line) for line in lines)

    assert [name for name in coulscat.__all__ if not has_caller(name)] == []


def test_no_method_options_in_public_signatures():
    found = [(name, param)
             for name in coulscat.__all__
             if callable(getattr(coulscat, name))
             for param in inspect.signature(getattr(coulscat, name)).parameters
             if param in METHOD_OPTIONS and (name, param) not in ALLOWED]
    assert found == []


def test_full_mode_entry_points_take_physical_inputs_only():
    # the matching radius comes from (a, b), and no step or tolerance is
    # settable: only the black hole, the partial wave and the radii
    params = {name: list(inspect.signature(getattr(coulscat, name)).parameters)
              for name in ("integrate_full_mode", "full_mode_phase_error")}
    assert params == {"integrate_full_mode": ["bh", "ell", "r", "r_start"],
                      "full_mode_phase_error": ["bh", "ell"]}


def test_kernel_keeps_no_cross_call_cache():
    # a constant of (a, b) lives on the caller's own object (specfun._Kummer
    # on ScatteringParams), never in a memo keyed by values: 200 hyp1f1 and
    # psi_exact calls of distinct (a, b) and gamma grow no module-level
    # dict, list or set, and no function or method is functools-cached
    modules = (specfun, exact, multipole)

    def sizes():
        return {(m.__name__, name): len(v) for m in modules
                for name, v in vars(m).items()
                if isinstance(v, (dict, list, set))}

    before = sizes()
    rng = np.random.default_rng(61)
    for gamma in rng.uniform(-2.0, 2.0, 200):
        a = complex(rng.uniform(-2.0, 2.0), gamma)
        specfun.hyp1f1(a, rng.uniform(0.5, 4.0), [5j, 40j, 200j])
        coulscat.psi_exact(coulscat.ScatteringParams(gamma),
                           coulscat.FieldPoint(rng.uniform(1.0, 500.0), 1.0))
    assert sizes() == before
    found = [(m.__name__, name) for m in modules
             for name, v in vars(m).items()
             for f in [v] + (list(vars(v).values()) if inspect.isclass(v)
                             else [])
             if hasattr(f, "cache_info")]
    assert found == []
