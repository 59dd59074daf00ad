"""The README quick tour runs as written and gives the values it quotes."""

import pathlib
import re

from coulscat.asymptotic import FORM_TOL

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_quick_tour_runs_and_matches_its_comments():
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    # "closed form vs the incoming wave's own gradient, 0.97758"
    p, pt = ns["p"], ns["pt"]
    for j_r in (ns["current_in_distorted"](p, pt).j_r, ns["j"].incoming.j_r):
        assert round(j_r, 5) == 0.97758
    # "-0.1, scattering off the far field" and "~0.0096"
    bh = ns["bh"]
    assert ns["coulomb_reduction"](bh).gamma == -0.1
    assert abs(ns["full_mode_phase_error"](bh, 2) - 0.0096) < 1e-4


def test_quotes_the_large_distance_tolerance():
    # the tolerance of the split's valid flag and of the two-wave mode
    text = (ROOT / "README.md").read_text()
    assert text.count("est (1 + est) < %g" % FORM_TOL) == 2
