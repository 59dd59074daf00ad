"""Command-line scan layer: spec validation, deterministic chunked output,
preset loading, and process exit codes."""

import json
import os

import numpy as np
import pytest

from coulscat import FieldPoint, ScatteringParams, psi_exact
from coulscat.cli import (
    CHUNK_ROWS,
    CSV_BLOCK_ROWS,
    PRESETS,
    QUANTITIES,
    ScanSpec,
    _spec_from_mapping,
    describe,
    load_preset,
    main,
    run_scan,
    write_csv,
)


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


def test_scan_deterministic_across_thread_counts(tmp_path, monkeypatch):
    # same bytes whatever the worker pool looks like
    spec1 = small_spec(tmp_path, theta_range=(0.01, 3.1, 5000),
                       out=str(tmp_path / "a.csv"))
    monkeypatch.setenv("SCATTER_THREADS", "1")
    run_scan(spec1)
    spec2 = small_spec(tmp_path, theta_range=(0.01, 3.1, 5000),
                       out=str(tmp_path / "b.csv"))
    monkeypatch.setenv("SCATTER_THREADS", "7")
    run_scan(spec2)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 5001


def test_scan_output_round_trips(tmp_path):
    spec = small_spec(tmp_path)
    _, rows = run_scan(spec)
    loaded = np.loadtxt(spec.out, delimiter=",", skiprows=1)
    # %.17g preserves doubles exactly
    assert np.array_equal(loaded, rows)


def test_invalid_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SCATTER_THREADS", "zero")
    with pytest.raises(ValueError):
        run_scan(small_spec(tmp_path))


def test_spec_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        small_spec(tmp_path, quantity="nonsense").validate()
    with pytest.raises(ValueError):
        small_spec(tmp_path, theta_range=(2.0, 1.0, 50)).validate()
    with pytest.raises(ValueError):
        small_spec(tmp_path, theta_range=(0.1, 3.0, 1)).validate()
    with pytest.raises(ValueError):
        small_spec(tmp_path, rho_values=[0.0]).validate()
    with pytest.raises(ValueError):
        small_spec(tmp_path, fixed_theta=4.0).validate()


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
    with pytest.raises(ValueError):
        describe("nonsense")


def test_main_describe_and_errors(tmp_path, capsys):
    assert main(["describe", "currents"]) == 0
    out = capsys.readouterr().out
    assert "validity" in out
    assert main(["describe"]) == 2
    assert main(["describe", "nonsense"]) == 2
    assert main(["psi_exact", "extra_name"]) == 2


def test_main_runs_scan(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    code = main(["psi_exact", "--gamma", "0.5", "--rho", "5",
                 "--theta-range", "0.2:3.0:25", "--out", out])
    assert code == 0
    assert os.path.exists(out)
    assert "25 rows" in capsys.readouterr().out


def test_main_rejects_axis_for_asymptotic_quantity(tmp_path):
    out = str(tmp_path / "x.csv")
    code = main(["psi_asymptotic", "--theta-range", "0.0:3.0:10",
                 "--out", out])
    assert code == 2
    assert not os.path.exists(out)


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


def test_chunking_is_invisible(tmp_path):
    # a grid crossing several chunk boundaries stays ordered
    n = CHUNK_ROWS * 2 + 17
    spec = small_spec(tmp_path, theta_range=(0.01, 3.1, n))
    _, rows = run_scan(spec)
    assert rows.shape[0] == n
    assert np.all(np.diff(rows[:, 1]) > 0)


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

