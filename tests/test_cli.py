"""Command-line scan layer: spec validation, deterministic chunked output,
preset loading, and process exit codes."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import coulscat
from coulscat import (
    FieldPoint,
    ScatteringParams,
    asymptotic,
    cli,
    current_decomposition_asymptotic,
    current_outgoing_exact,
    exact,
    f_series_partial_sweep,
    psi_exact,
    specfun,
)
from coulscat.cli import (
    CHUNK_ROWS,
    CSV_BLOCK_ROWS,
    PRESETS,
    QUANTITIES,
    ScanSpec,
    _BUILDERS,
    _product_period,
    _spec_from_mapping,
    describe,
    load_preset,
    main,
    run_scan,
    write_csv,
)
from coulscat.currents import current_scan_grid


def small_spec(tmp_path, **overrides):
    base = dict(quantity="psi_exact", gamma=1.0,
                rho_values=[4.0], theta_range=(0.2, 3.0, 40),
                out=str(tmp_path / "scan.csv"))
    base.update(overrides)
    return ScanSpec(**base)


def test_scan_matches_direct_evaluation(tmp_path):
    spec = small_spec(tmp_path)
    header, rows = run_scan(spec)
    assert header[:3] == ["rho", "theta", "re_psi"]
    assert rows.shape[0] == 40
    p = ScatteringParams(gamma=1.0, k=1.0)
    for row in rows[::7]:
        ref = psi_exact(p, FieldPoint(rho=row[0], theta=row[1]))
        assert abs(complex(row[2], row[3]) - ref) < 1e-14
        assert abs(row[4] - abs(ref)) < 1e-14


def test_multi_chunk_scan_rerun_is_byte_identical(tmp_path):
    # 5000 rows span three chunks; a rerun gives the same bytes
    assert 5000 > 2 * CHUNK_ROWS
    spec1 = small_spec(tmp_path, theta_range=(0.01, 3.1, 5000),
                       out=str(tmp_path / "a.csv"))
    run_scan(spec1)
    spec2 = small_spec(tmp_path, theta_range=(0.01, 3.1, 5000),
                       out=str(tmp_path / "b.csv"))
    run_scan(spec2)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 5001


@pytest.mark.parametrize("backreaction", [False, True])
def test_currents_scan_row_equals_pointwise_currents(tmp_path, backreaction):
    spec = ScanSpec(quantity="currents", gamma=0.4, rho_values=[10.0, 100.0],
                    theta_range=(0.05, 3.1, 30), backreaction=backreaction,
                    out=str(tmp_path / "cur.csv"))
    _, rows = run_scan(spec)
    p = ScatteringParams(gamma=0.4, k=1.0)
    for row in rows[::7]:
        pt = FieldPoint(rho=row[0], theta=row[1])
        dec = current_decomposition_asymptotic(p, pt, backreaction=backreaction)
        plain = current_outgoing_exact(p, pt, subtract_backreaction=False)
        g2 = current_outgoing_exact(p, pt, subtract_backreaction=True)
        j_exact = current_scan_grid(p, row[0], row[1])[3]
        expected = [dec.total.j_r, dec.total.j_theta,
                    dec.incoming.j_r, dec.incoming.j_theta,
                    dec.scattered.j_r, dec.scattered.j_theta,
                    dec.interference.j_r, dec.interference.j_theta,
                    float(j_exact[0]), float(j_exact[1]),
                    plain.j_r, plain.j_theta, g2.j_r, g2.j_theta]
        assert list(row[2:]) == expected


def test_currents_scan_row_independent_of_other_rho(tmp_path):
    # a row's currents depend on its own (rho, theta) alone, so rho = 10
    # rows are the same scanned alone or in one chunk with rho = 100
    def scan(rho_values, name):
        spec = ScanSpec(quantity="currents", gamma=0.4, rho_values=rho_values,
                        theta_range=(0.05, 3.1, 30), out=str(tmp_path / name))
        return run_scan(spec)[1]

    alone = scan([10.0], "alone.csv")
    mixed = scan([10.0, 100.0], "mixed.csv")
    assert np.array_equal(alone, mixed[mixed[:, 0] == 10.0])


def test_scan_output_round_trips(tmp_path):
    spec = small_spec(tmp_path)
    _, rows = run_scan(spec)
    loaded = np.loadtxt(spec.out, delimiter=",", skiprows=1)
    # %.17g preserves doubles exactly
    assert np.array_equal(loaded, rows)


def test_spec_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        small_spec(tmp_path, quantity="nonsense").validate()
    with pytest.raises(ValueError):
        small_spec(tmp_path, theta_range=(2.0, 1.0, 50)).validate()
    with pytest.raises(ValueError):
        small_spec(tmp_path, theta_range=(0.1, 3.0, 1)).validate()
    with pytest.raises(ValueError,
                       match=r"--theta-range must lie in \[0, pi\]"):
        small_spec(tmp_path, theta_range=(0.1, 4.0, 5)).validate()
    with pytest.raises(ValueError, match="unknown spec fields: bogus"):
        _spec_from_mapping({"quantity": "psi_exact", "bogus": 1})
    # the preset-only field, read by reduced_series alone
    with pytest.raises(ValueError,
                       match="^cesaro does not read ell_max_values$"):
        _spec_from_mapping({"quantity": "cesaro", "ell_max_values": [3]})
    with pytest.raises(ValueError):
        small_spec(tmp_path, rho_values=[0.0]).validate()
    with pytest.raises(ValueError):
        ScanSpec(quantity="diverging_sum", fixed_theta=4.0).validate()
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="--rho"):
            small_spec(tmp_path, rho_values=[4.0, bad]).validate()
        with pytest.raises(ValueError, match="--kx"):
            small_spec(tmp_path, quantity="field_map", rho_values=None,
                       theta_range=None, kx_values=[bad]).validate()


@pytest.mark.parametrize("args, flag", [
    (["psi_exact", "--rho", "inf"], "--rho"),
    (["psi_exact", "--rho", "nan"], "--rho"),
    (["psi_asymptotic", "--rho", "inf"], "--rho"),
    (["field_map", "--kx", "inf", "--kz-range=-1:1:2"], "--kx"),
    (["field_map", "--kx", "nan", "--kz-range=-1:1:2"], "--kx"),
    (["cross_section", "--mu", "nan"], "mu"),
])
def test_main_rejects_non_finite_axis_values(tmp_path, capsys, args, flag):
    # NaN fails every comparison, so each check is written to fail on it
    out = str(tmp_path / "nf.csv")
    assert main(args + ["--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not os.path.exists(out)


def test_presets_all_load_and_validate():
    assert PRESETS == ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
    for name in PRESETS:
        spec = _spec_from_mapping(load_preset(name))
        spec.validate()
        assert spec.quantity in QUANTITIES
    with pytest.raises(ValueError):
        load_preset("fig99")


def test_describe_text():
    for name in QUANTITIES:
        text = describe(name)
        assert "validity" in text
        # its last line lists the row's fields, by flag where one exists
        assert text.splitlines()[-1] == "flags: " + ", ".join(
            cli._flag(field) for field in cli._ROWS[name][1])
    with pytest.raises(ValueError):
        describe("nonsense")
    # the thresholds it quotes are the ones the code applies
    for name in ("psi_asymptotic", "bh_mode"):
        assert "est (1 + est) < %g," % asymptotic.FORM_TOL in describe(name)
    assert ("2 omega r = %g + %g |lambda + 1 - i gamma|^2"
            % (specfun.SERIES_SWITCH_BASE, specfun.SERIES_SWITCH_SCALE)
            in describe("bh_mode"))


def test_main_describe_and_errors(tmp_path, capsys):
    assert main(["describe", "currents"]) == 0
    out = capsys.readouterr().out
    assert "validity" in out
    assert main(["describe"]) == 2
    assert main(["describe", "nonsense"]) == 2
    assert main(["psi_exact", "extra_name"]) == 2
    # a range that is not A:B:N, and a theta-spacing flag (the quantity
    # sets the spacing), are argparse's own usage errors
    for args in (["psi_exact", "--theta-range", "1:2"],
                 ["psi_exact", "--theta-range", "0.1:3:2.5"],
                 ["cesaro", "--theta-log"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
    assert ("argument --theta-range: expected A:B:N, N an integer"
            in capsys.readouterr().err)


def test_main_runs_scan(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    code = main(["psi_exact", "--gamma", "0.5", "--rho", "5",
                 "--theta-range", "0.2:3.0:25", "--out", out])
    assert code == 0
    assert os.path.exists(out)
    assert "25 rows" in capsys.readouterr().out


def test_main_rejects_axis_for_asymptotic_quantity(tmp_path):
    # each library call (or spec check) raises before write_csv, so no file
    # is written
    zero = ["--theta-range", "0.0:3.0:10"]
    for args in (["psi_asymptotic"] + zero,
                 ["psi_exact", "--with-asymptotic"] + zero,
                 ["currents"] + zero,
                 ["cross_section"] + zero,
                 ["cesaro"] + zero,
                 ["reduced_series", "--theta-range", "0.1:%r:10" % np.pi],
                 ["diverging_sum", "--theta", "0"],
                 ["diverging_sum", "--ell-max", "-1"],
                 ["field_map", "--kx", "0", "--kx-range=-1:1:3",
                  "--kz-range=0:1:2"],
                 ["bh_mode", "--mass", "0.5", "--omega", "1",
                  "--r-range", "0.5:5:4"]):
        out = str(tmp_path / "x.csv")
        assert main(args + ["--out", out]) == 2, args
        assert not os.path.exists(out), args


def test_main_unwritable_out(tmp_path, monkeypatch, capsys):
    # exit 2 with the path named. A missing directory, a regular file as
    # the directory, and a directory as out are rejected before any builder
    # runs (the fig3 one fails if called; a builder may compute, as
    # bh_mode's does); any other write error when write_csv opens the file
    def fail(*args):
        raise AssertionError("builder ran")

    monkeypatch.setitem(_BUILDERS, "field_map", fail)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv",
                tmp_path):
        assert main(["field_map", "--preset", "fig3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out %s: " % out)
    assert not (tmp_path / "missing").exists()

    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_csv", full)
    out = tmp_path / "x.csv"
    assert main(["psi_exact", "--rho", "5", "--theta-range", "0.2:3.0:5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write --out %s: %s\n"
        % (out, os.strerror(errno.ENOSPC)))


def test_theta_spacing_follows_the_quantity(tmp_path):
    # one --theta-range: a geometric axis for the two amplitude series, a
    # linear one for every other theta scan
    out = str(tmp_path / "t.csv")
    for quantity, axis in (("cesaro", np.geomspace),
                           ("reduced_series", np.geomspace),
                           ("psi_exact", np.linspace),
                           ("psi_asymptotic", np.linspace),
                           ("currents", np.linspace),
                           ("cross_section", np.linspace)):
        assert main([quantity, "--theta-range", "0.1:3:5",
                     "--out", out]) == 0, quantity
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        theta = data[:, 0 if quantity == "cross_section" else 1]
        assert np.array_equal(theta, axis(0.1, 3.0, 5)), quantity


def test_main_classical_guard(tmp_path):
    out = str(tmp_path / "cs.csv")
    args = ["cross_section", "--mass", "0.2", "--omega", "1.0",
            "--theta-range", "0.5:3.0:10", "--out", out]
    assert main(args) == 2
    assert main(args + ["--acknowledge-classical"]) == 0
    assert os.path.exists(out)


def test_main_mass_without_omega(tmp_path):
    code = main(["psi_exact", "--mass", "0.2",
                 "--out", str(tmp_path / "y.csv")])
    assert code == 2


# a value that a flag of each field type accepts; float and list[float]
# flags take "0.5"
FLAG_VALUE = {bool: [], tuple: ["0.5:2.5:3"], int: ["3"], list[int]: ["3"]}
# every flag but --out and --preset, with its value
FLAG_ARGS = {f.name: [cli._flag(f.name)] + FLAG_VALUE.get(f.type, ["0.5"])
             for f in fields(ScanSpec)
             if cli._flag(f.name).startswith("--")
             and f.name not in ("quantity", "out")}


@pytest.mark.parametrize("quantity", QUANTITIES)
@pytest.mark.parametrize("field", sorted(FLAG_ARGS))
def test_flag_is_read_or_exits_2(tmp_path, capsys, quantity, field):
    # a flag the quantity's row lists passes the spec check; any other flag
    # exits 2, naming itself and the quantity, before a file is written
    args = [quantity] + FLAG_ARGS[field]
    if field in cli._ROWS[quantity][1]:
        spec = cli._spec_from_args(cli._build_parser().parse_args(args))
        assert getattr(spec, field) is not None
        return
    out = tmp_path / "u.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s does not read %s\n" % (
        quantity, FLAG_ARGS[field][0])
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["cross_section", "--rho", "5", "--ell", "7", "--cesaro-n", "3",
      "--kx", "2"], "cross_section does not read --cesaro-n, --ell, --kx, "
                    "--rho"),
    (["psi_exact", "--backreaction"],
     "psi_exact --backreaction needs --with-asymptotic"),
    (["psi_exact", "--mass", "0.05", "--omega", "1", "--gamma", "5"],
     "give --gamma/--k or --mass/--omega, not both"),
    (["cross_section", "--k", "3", "--omega", "1", "--mass", "0.05",
      "--acknowledge-classical"],
     "give --gamma/--k or --mass/--omega, not both"),
    (["field_map", "--kx", "0", "--kx-range=-1:1:3"],
     "give --kx or --kx-range, not both"),
])
def test_main_rejects_unread_and_conflicting_flags(tmp_path, capsys, args,
                                                   message):
    out = tmp_path / "c.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_builders_read_exactly_their_rows():
    # a builder (and the compute it returns) reads only fields its row
    # lists, and over both sides of each conditional read, all of them
    theta = (0.5, 2.5, 3)
    branches = [
        ("psi_exact", dict(theta_range=theta)),
        ("psi_exact", dict(theta_range=theta, with_asymptotic=True)),
        ("psi_asymptotic", dict(theta_range=theta)),
        ("currents", dict(theta_range=theta)),
        ("cross_section", dict(theta_range=theta)),
        ("cross_section", dict(theta_range=theta, mass=0.2, omega=1.0,
                               acknowledge_classical=True)),
        ("cesaro", dict(theta_range=theta, cesaro_n_values=[3])),
        ("reduced_series", dict(theta_range=theta, ell_max=3)),
        ("reduced_series", dict(theta_range=theta, ell_max_values=[3])),
        ("diverging_sum", dict(ell_max=5)),
        ("field_map", dict(kx_values=[0.0, 1.0], kz_range=(-1.0, 1.0, 2))),
        ("field_map", dict(kx_range=(-1.0, 1.0, 3), kz_range=(-1.0, 1.0, 2))),
        ("bh_mode", dict(mass=0.05, omega=1.0, r_range=(50.0, 60.0, 3))),
    ]
    names = {f.name for f in fields(ScanSpec)}
    union = {}
    for quantity, given in branches:
        read = set()

        class Recording(ScanSpec):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        spec = Recording(quantity=quantity, **given)
        read.clear()
        header, n_rows, compute = _BUILDERS[quantity](spec)
        compute(0, n_rows)
        row = set(cli._ROWS[quantity][1])
        assert read & names <= row, (quantity, given)
        union.setdefault(quantity, set()).update(read & names)
    assert union == {q: set(cli._ROWS[q][1]) for q in QUANTITIES}


def test_preset_quantity_mismatch(tmp_path):
    code = main(["currents", "--preset", "fig1",
                 "--out", str(tmp_path / "z.csv")])
    assert code == 2


def test_preset_with_overrides(tmp_path):
    # a preset can be replayed at reduced resolution through flag overrides
    out = str(tmp_path / "f1.csv")
    code = main(["psi_exact", "--preset", "fig1", "--rho", "10",
                 "--theta-range", "0.05:3.1:30", "--out", out])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[0] == 30


def test_flag_overrides_map_onto_spec_fields(tmp_path):
    # absent flags leave the preset's values; given ones replace them
    out = str(tmp_path / "f1.csv")
    assert main(["psi_exact", "--preset", "fig1", "--rho", "10",
                 "--theta-range", "0.05:3.1:6", "--out", out]) == 0
    # fig1's with_asymptotic and backreaction survive: 9 columns
    assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (6, 9)

    out = str(tmp_path / "f5.csv")
    assert main(["diverging_sum", "--preset", "fig5", "--theta", "1.0",
                 "--ell-max", "10", "--out", out]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    ref = f_series_partial_sweep(ScatteringParams(gamma=10.0, k=1.0), 1.0, 10)
    assert np.array_equal(data[:, 1] + 1j * data[:, 2], ref)

    out = str(tmp_path / "fm.csv")
    assert main(["field_map", "--kx", "0", "--kx", "10", "--out", out]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert sorted(set(data[:, 0])) == [0.0, 10.0]


def test_flag_replaces_whole_preset_axis(tmp_path):
    # a flag for an axis the preset sets through its paired field (a list
    # against a single value, or values against a range) replaces it
    out = str(tmp_path / "c.csv")
    assert main(["cesaro", "--preset", "fig6", "--cesaro-n", "50",
                 "--out", out]) == 0
    assert set(np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]) == {50.0}
    out = str(tmp_path / "r.csv")
    assert main(["reduced_series", "--preset", "fig7", "--ell-max", "20",
                 "--out", out]) == 0
    assert set(np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]) == {20.0}
    out = str(tmp_path / "m.csv")
    assert main(["field_map", "--preset", "fig2", "--kx-range=-1:1:3",
                 "--out", out]) == 0
    kx = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert sorted(set(kx)) == [-1.0, 0.0, 1.0]
    # --mass/--omega replace the preset's gamma and k
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    tail = ["--mass", "0.05", "--omega", "1", "--rho", "5",
            "--theta-range", "0.1:3:4"]
    assert main(["psi_exact", "--preset", "fig1", "--out", str(a)]
                + tail) == 0
    assert main(["psi_exact", "--with-asymptotic", "--backreaction",
                 "--out", str(b)] + tail) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cesaro_n_repeats_and_defaults_to_1000(tmp_path):
    out = str(tmp_path / "c.csv")
    assert main(["cesaro", "--gamma", "0.5", "--cesaro-n", "20",
                 "--cesaro-n", "40", "--theta-range", "0.1:3:5",
                 "--out", out]) == 0
    n = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert list(n) == [20.0] * 5 + [40.0] * 5
    assert main(["cesaro", "--gamma", "0.5", "--theta-range", "0.1:3:5",
                 "--out", out]) == 0
    assert set(np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]) == {1000.0}


def test_bh_mode_scan(tmp_path):
    out = str(tmp_path / "bh.csv")
    code = main(["bh_mode", "--mass", "0.05", "--omega", "1.0",
                 "--ell", "2", "--r-range", "50:500:40", "--out", out])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (40, 7)
    # asymptotic and integrated columns agree far out
    asym = data[-1, 1] + 1j * data[-1, 2]
    full = data[-1, 4] + 1j * data[-1, 5]
    assert abs(asym - full) < 2e-2 * abs(full)


def test_bh_mode_requires_mass(tmp_path):
    code = main(["bh_mode", "--r-range", "50:300:40",
                 "--out", str(tmp_path / "n.csv")])
    assert code == 2


def test_bh_mode_names_mass_where_the_full_mode_has_no_start(tmp_path,
                                                             capsys):
    # at --mass 0 ten Schwarzschild radii are 0; the CLI has no r_start
    out = tmp_path / "m0.csv"
    code = main(["bh_mode", "--mass", "0", "--omega", "1",
                 "--r-range", "50:500:40", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bh_mode requires --mass > 0: its full mode starts from ten "
        "Schwarzschild radii, got --mass 0\n")
    assert not out.exists()


def test_main_numerical_failure_exits_3(tmp_path, capsys):
    # the ell = 300 wave underflows float64 on its way in from r_start = 1
    out = tmp_path / "e3.csv"
    code = main(["bh_mode", "--mass", "0.05", "--omega", "1", "--ell", "300",
                 "--r-range", "5e5:6e5:2", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


def test_chunking_is_invisible(tmp_path):
    # a grid crossing several chunk boundaries stays ordered
    n = CHUNK_ROWS * 2 + 17
    spec = small_spec(tmp_path, theta_range=(0.01, 3.1, n))
    _, rows = run_scan(spec)
    assert rows.shape[0] == n
    assert np.all(np.diff(rows[:, 1]) > 0)


def test_field_map_mirror_dedup_changes_no_value(tmp_path):
    # rows at kx and -kx share one psi evaluation; every psi column equals
    # the direct evaluation of its own row, across chunk boundaries, for an
    # unsorted kx axis with repeats and both signed zeros
    kx_values = [10.0, -0.0, -10.0, 3.0, 0.0, -7.0, 10.0]
    out = tmp_path / "fm.csv"
    spec = ScanSpec(quantity="field_map", gamma=1.0, kx_values=kx_values,
                    kz_range=(-40.0, 80.0, 700), out=str(out))
    _, rows = run_scan(spec)
    assert rows.shape[0] == 7 * 700 > 2 * CHUNK_ROWS
    x, z = rows[:, 0], rows[:, 1]
    assert np.array_equal(np.signbit(x), np.repeat(np.signbit(kx_values), 700))
    psi = exact.psi_exact_grid(ScatteringParams(gamma=1.0, k=1.0),
                               np.hypot(x, z), np.arctan2(np.abs(x), z))
    assert np.all(rows[:, 2] == psi.real)
    assert np.all(rows[:, 3] == psi.imag)
    assert np.all(rows[:, 4] == np.abs(psi))
    lines = out.read_text().splitlines()
    assert lines[701].startswith("-0,") and lines[2801].startswith("0,")


def test_field_map_evaluates_each_mirrored_point_once(tmp_path, monkeypatch):
    # kx in {-4, ..., 4} has 5 distinct |kx|, so 9 x 500 rows need 5 x 500
    # field points, and the plateau column one more on the forward axis
    counted = []
    grid = exact.psi_exact_grid

    def counting(p, rho, theta):
        counted.append(np.size(rho))
        return grid(p, rho, theta)

    monkeypatch.setattr(exact, "psi_exact_grid", counting)
    spec = ScanSpec(quantity="field_map", gamma=1.0, kx_range=(-4.0, 4.0, 9),
                    kz_range=(-4.0, 8.0, 500), out=str(tmp_path / "fm.csv"))
    _, rows = run_scan(spec)
    assert rows.shape[0] == 9 * 500
    assert sum(counted) == 5 * 500 + 1


def test_field_map_evaluates_its_table_in_one_call(monkeypatch):
    # fig3: 321 x 481 rows over 161 distinct |kx|, 76 chunks. Building the
    # scan evaluates nothing; its first chunk makes one psi_exact_grid call
    # for the whole table and one for the plateau, and the other chunks none
    counted = []
    grid = exact.psi_exact_grid

    def counting(p, rho, theta):
        counted.append(np.size(rho))
        return grid(p, rho, theta)

    monkeypatch.setattr(exact, "psi_exact_grid", counting)
    spec = _spec_from_mapping(load_preset("fig3"))
    header, n_rows, compute = _BUILDERS["field_map"](spec)
    assert counted == [] and n_rows == 321 * 481 > 70 * CHUNK_ROWS
    compute(0, CHUNK_ROWS)
    assert counted == [161 * 481, 1]
    for start in range(CHUNK_ROWS, n_rows, CHUNK_ROWS):
        compute(start, min(start + CHUNK_ROWS, n_rows))
    assert counted == [161 * 481, 1]


def test_preset_files_are_plain_json():
    # the shipped presets stay readable as data, not code
    from importlib import resources

    for name in PRESETS:
        text = (resources.files("coulscat") / ("presets/%s.json" % name)
                ).read_text()
        data = json.loads(text)
        assert data["quantity"] in QUANTITIES


def test_write_csv_matches_per_value_formatting(tmp_path):
    # block formatting writes the bytes of "%.17g" applied value by value,
    # across block boundaries and for signed zeros, subnormals and non-finites
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2 * CSV_BLOCK_ROWS + 3, 4))
    rows *= 10.0 ** rng.integers(-300, 300, size=rows.shape)
    rows[0] = [-0.0, 5e-324, np.inf, np.nan]
    rows[-1] = [0.0, -2.2250738585072014e-308, -np.inf, 1.0 / 3.0]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "w.csv"
    write_csv(str(path), header, rows)
    ref = "a,b,c,d\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                for row in rows)
    assert path.read_bytes() == ref.encode()
    write_csv(str(path), header, rows[:0])
    assert path.read_bytes() == b"a,b,c,d\n"
    # columns that are constant within a block are formatted once: constant
    # in the first block only, 0.0 mixed with -0.0, all NaN, +inf then -inf;
    # and blocks of a single row
    n = len(rows)
    first = np.where(np.arange(n) < CSV_BLOCK_ROWS, 2.5, rows[:, 0])
    zeros = np.where(rng.random(n) < 0.999, 0.0, -0.0)
    zeros[CSV_BLOCK_ROWS] = -0.0
    infs = np.where(np.arange(n) < CSV_BLOCK_ROWS, np.inf, -np.inf)
    wide = np.column_stack([rows, first, zeros, np.full(n, np.nan), infs])
    header = ["a", "b", "c", "d", "e", "f", "g", "h"]
    for part in (wide, wide[:CSV_BLOCK_ROWS + 1], wide[-1:]):
        write_csv(str(path), header, part)
        ref = ",".join(header) + "\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in part)
        assert path.read_bytes() == ref.encode()

    # outer x inner products write their two coordinate columns as
    # literals; near-misses of the shape take the plain path
    def product(outer, p):
        inner = rng.normal(size=p) * 10.0 ** rng.integers(-300, 300, size=p)
        inner[:2] = [-0.0, 0.0]
        o, i = np.repeat(outer, p), np.tile(inner, len(outer))
        return np.column_stack([o, i, rng.normal(size=(len(o), 2)),
                                np.full(len(o), 7.0), np.full(len(o), np.nan)])

    zeros_outer = product([-0.0, 0.0, 1.5, -0.0], 5)
    flipped = product([1.0, 2.0, 3.0], 6)
    flipped[-2, 1] = np.nextafter(flipped[-2, 1], np.inf)
    inside = product([1.0, 2.0, 3.0], 6)
    inside[8, 0] = 9.0
    cases = [(zeros_outer, 5),
             (product([0.5, -2.0], CSV_BLOCK_ROWS), CSV_BLOCK_ROWS),
             (product([0.5, -2.0], CSV_BLOCK_ROWS + 1), 0),
             (product(np.arange(5.0), 1000), 1000),
             (product([3.0], 700), 700),
             (flipped, 0),
             (inside, 0),
             (product([1.0, 2.0, 3.0], 6)[:-1], 0)]
    header = ["o", "i", "a", "b", "c", "nan"]
    for part, p in cases:
        assert _product_period(part.view(np.int64)) == p
        write_csv(str(path), header, part)
        ref = ",".join(header) + "\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in part)
        assert path.read_bytes() == ref.encode()


# a small spec for each quantity, of the fields it reads
SMALL = {"psi_exact": dict(theta_range=(0.5, 2.5, 3)),
         "psi_asymptotic": dict(theta_range=(0.5, 2.5, 3)),
         "currents": dict(theta_range=(0.5, 2.5, 3)),
         "cross_section": dict(theta_range=(0.5, 2.5, 3)),
         "cesaro": dict(theta_range=(0.5, 2.5, 3), cesaro_n_values=[3]),
         "reduced_series": dict(theta_range=(0.5, 2.5, 3),
                                ell_max_values=[3]),
         "diverging_sum": dict(ell_max=5),
         "field_map": dict(kx_range=(-1.0, 1.0, 3), kz_range=(-1.0, 1.0, 2)),
         "bh_mode": dict(mass=0.05, omega=1.0, r_range=(50.0, 60.0, 3))}


def test_builders_return_the_scan_triple(tmp_path):
    # perfbench's tracer unpacks (header, n_rows, compute) from each builder
    assert set(_BUILDERS) == set(QUANTITIES)
    for name, build in _BUILDERS.items():
        spec = ScanSpec(quantity=name, **SMALL[name])
        spec.validate()
        triple = build(spec)
        assert isinstance(triple, tuple) and len(triple) == 3, name
        header, n_rows, compute = triple
        assert compute(0, n_rows).shape == (n_rows, len(header)), name


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(coulscat.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, coulscat.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# SHA-256 of the shipped presets' CSVs and of the README bh_mode scan: a
# byte moved anywhere in these scans shows here. CSV bytes are those of
# this platform's float64 arithmetic (x86-64, numpy 2.4).
PRESET_SHA256 = {
    "fig1": "41bf4dac81014f8a41d66014be27cb4cc59974dda98f2224ebefde41078a0a2a",
    "fig2": "df2b55b59bba46ac72d1dcd0ef8131a5d53ca3c389ce9fb9799c801d77ced4bc",
    "fig3": "82553bbf2b94933a96f0b8a9c3133f1606e99c4ea64c7bdc32c971ea97c806ed",
    "fig4": "fb25cc90c238f78cae1dc6ff37a12532acd22129f3fe835ecd1920f2312bad1d",
    "fig5": "c02be81460857384a5a95a69ee00f00a6ecf6f0fceee86a5dff892f5992118e1",
    "fig6": "4f946c3c0ed8e55638a2d16fee2357579ebd47d4f2848b85597f5971c4454b3d",
    "fig7": "c915b9e0c9930a57e64c474ee2f7744bfbcb664dbe45cbecd03239c0ab3efc31",
}
README_BH_MODE = ("bh_mode", "--mass", "0.05", "--omega", "1.0", "--ell", "2",
                  "--r-range", "50:500:40")
README_BH_MODE_SHA256 = (
    "3e8e9597a4e4c8765aca3101ffd6e7cf7bf77e85c88fd306ba32161b2a2607bc")


@pytest.mark.parametrize("name", list(PRESET_SHA256) + ["readme_bh_mode"])
def test_preset_bytes_pinned(tmp_path, name):
    out = tmp_path / (name + ".csv")
    if name in PRESET_SHA256:
        spec = _spec_from_mapping(load_preset(name))
        spec.out = str(out)
        run_scan(spec)
        digest = PRESET_SHA256[name]
    else:
        assert main(list(README_BH_MODE) + ["--out", str(out)]) == 0
        digest = README_BH_MODE_SHA256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
