import argparse
import csv
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from floqheat.cli import build_parser, main
from floqheat.config import load_config
from floqheat.perturbation import closed_form_delta_power
from floqheat.scenarios import default_spectrum_grid, operating_point

from conftest import COUPLING, DRIVE, KAPPA, OMEGA0, chain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def chain_config(tmp_path, **net_extra):
    doc = {
        "network": {
            "omega": [OMEGA0] * 4,
            "kappa": [KAPPA] * 4,
            "T": [0.0] * 4,
            "hermitian": True,
            "couplings": [[1, 2, COUPLING, 0.0], [2, 3, COUPLING, 0.0],
                          [3, 4, COUPLING, 0.0]],
        },
        "modulation": {
            "beta": 0.05 * OMEGA0,
            "Omega": DRIVE,
            "theta": [0.0, 0.0, 0.5 * np.pi, 0.0],
            "mask": [0, 1, 1, 0],
        },
    }
    doc["network"].update(net_extra)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_power_default_chain(capsys, tmp_path):
    out_csv = tmp_path / "power.csv"
    code, out, _ = run(capsys, "power", "--methods", "qme",
                       "--out", str(out_csv))
    assert code == 0
    assert "P14" in out and "E = " in out
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["method"] == "qme"
    assert float(rows[0]["P14_W"]) > 0


def test_power_config_matches_flags(capsys, tmp_path):
    cfg = chain_config(tmp_path)
    code, out_cfg, _ = run(capsys, "power", "--config", str(cfg),
                           "--methods", "qme")
    assert code == 0
    code, out_flags, _ = run(capsys, "power", "--beta", "0.05",
                             "--theta", "0.5", "--methods", "qme")
    assert code == 0
    def p14(text):
        line = [l for l in text.splitlines() if "qme" in l][0]
        return float(line.split("P14 =")[1].split("W")[0])
    assert p14(out_cfg) == pytest.approx(p14(out_flags), rel=1e-12)


def csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_power_config_of_any_size_runs_the_protocol(capsys, tmp_path):
    # a three-resonator config takes the same resonator-1 <-> resonator-N
    # path as the chain, with the flags' method, tolerance and T_hot
    path = tmp_path / "three.yaml"
    path.write_text(yaml.safe_dump({
        "network": {"omega": [OMEGA0] * 3, "kappa": [KAPPA] * 3,
                    "T": [300.0, 0.0, 0.0], "hermitian": True,
                    "couplings": [[1, 2, COUPLING, 0.0], [2, 3, COUPLING, 0.0]]},
        "modulation": {"beta": 0.05 * OMEGA0, "Omega": DRIVE,
                       "theta": [0.0, 0.0, 0.5 * np.pi], "mask": [0, 1, 1]},
    }))
    out_csv = tmp_path / "power.csv"
    code, out, _ = run(capsys, "power", "--config", str(path), "--methods", "qle",
                       "--t-hot", "5", "--quad-tol", "1e-3", "--out", str(out_csv))
    assert code == 0
    assert out.count("P14 =") == 1 and "qle: P14 =" in out
    (row,) = csv_rows(out_csv)
    net, mod = load_config(path)
    ref = operating_point(net, mod, "qle", quad_tol=1e-3, T_hot=5.0)
    assert row["method"] == "qle"
    assert (row["P14_W"], row["P41_W"]) == (f"{ref.P14:.12e}", f"{ref.P41:.12e}")


def test_sweep_config_rows_equal_power_rows(capsys, tmp_path):
    cfg = chain_config(tmp_path)
    power_csv, sweep_csv = tmp_path / "power.csv", tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "power", "--config", str(cfg),
                     "--methods", "qme,closed", "--out", str(power_csv))
    assert code == 0
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--parameter", "theta",
                     "--values", "0.5", "--methods", "qme,closed",
                     "--out", str(sweep_csv))
    assert code == 0
    assert csv_rows(sweep_csv) == csv_rows(power_csv)


def test_constants_config_exits_3(capsys, tmp_path):
    cfg = chain_config(tmp_path)
    doc = yaml.safe_load(cfg.read_text())
    doc["constants"] = {"hbar": 1.0e-35}
    cfg.write_text(yaml.safe_dump(doc))
    code, out, err = run(capsys, "power", "--config", str(cfg))
    assert code == 3
    assert "invalid input" in err and "constants" in err
    assert "P14" not in out


def test_closed_form_on_unequal_chain_exits_3(capsys, tmp_path):
    cfg = chain_config(tmp_path, kappa=[KAPPA] * 3 + [1.1 * KAPPA])
    code, _, err = run(capsys, "power", "--config", str(cfg), "--methods", "closed")
    assert code == 3
    assert "invalid input: closed forms require identical resonators" in err
    # a sweep flags the row instead of aborting
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--parameter", "theta",
                       "--values", "0.5", "--methods", "closed,qme",
                       "--out", str(out_csv))
    assert code == 0
    closed, qme = csv_rows(out_csv)
    assert closed["status"] == "error: closed forms require identical resonators"
    assert qme["status"] == "ok"


def one_resonator_config(tmp_path):
    path = tmp_path / "single.yaml"
    path.write_text(yaml.safe_dump({
        "network": {"omega": [OMEGA0], "kappa": [KAPPA], "T": [300.0]},
        "modulation": {"beta": 0.05 * OMEGA0, "Omega": DRIVE, "theta": [0.0],
                       "mask": [1]},
    }))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("power", "--methods", "qme,pert1,pert2,oracle"),
    ("power", "--methods", "qle"),
    ("spectrum",),
    ("compare",),
])
def test_one_resonator_config_exits_3(capsys, tmp_path, monkeypatch, argv):
    # the protocol needs two distinct ends: refused before any solve
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--config", one_resonator_config(tmp_path))
    assert code == 3
    assert ("invalid input: the forward/backward protocol needs at least two "
            "resonators") in err
    assert "P14 =" not in out and "cross-validation" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["single.yaml"]


def test_one_sided_coupling_config_exits_3(capsys, tmp_path):
    # without hermitian: true each coupling must be listed in both directions
    cfg = chain_config(tmp_path, hermitian=False)
    code, out, err = run(capsys, "compare", "--config", str(cfg))
    assert code == 3
    assert ("invalid input: coupling [1, 2] has no [2, 1] entry; list both or "
            "set hermitian: true") in err
    assert "cross-validation" not in out


def test_shipped_example_config(capsys):
    import pathlib
    cfg = pathlib.Path(__file__).resolve().parent.parent / "demos" / "chain.yaml"
    code, out, _ = run(capsys, "power", "--config", str(cfg),
                       "--methods", "qme")
    assert code == 0
    line = [l for l in out.splitlines() if "qme" in l][0]
    e = float(line.split("E = ")[1])
    assert e == pytest.approx(0.5673, abs=2e-3)


def test_power_perturbation_methods(capsys):
    code, out, _ = run(capsys, "power", "--beta", "0.02", "--theta", "0.5",
                       "--methods", "qme,pert1,pert2")
    assert code == 0
    assert out.count("P14 =") == 3


def test_pert2_out_of_range_noted_once_per_run(capsys, tmp_path):
    # beta >= 0.04 omega_0 is beyond the Neumann expansion: a pert2 P14 or
    # P41 turns negative; the rows stay "ok", and the notice is printed once
    notice = ("warning: pert2 transfer power negative: beta is beyond the "
              "Neumann expansion's range\n")
    for argv in (["power", "--methods", "pert2"],
                 ["sweep", "--parameter", "beta", "--values", "0.045,0.05",
                  "--methods", "pert2", "--out", str(tmp_path / "sweep.csv")]):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err.count(notice) == 1 and "flagged" not in err
    code, _, err = run(capsys, "power", "--methods", "pert2", "--beta", "0.02")
    assert code == 0 and "pert2 transfer power negative" not in err


def test_regime_finding_printed_once_per_run(capsys, tmp_path, monkeypatch):
    # at the defaults hbar*Omega is above 0.1 kB T_hot; the three methods,
    # or the four swept values, each solve such a network, and the finding
    # is printed once, by the CLI
    monkeypatch.chdir(tmp_path)    # the sweep writes sweep.csv here
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["power", "--methods", "qme,pert1,pert2"],
                 ["sweep", "--parameter", "beta",
                  "--values", "0.01,0.02,0.03,0.04"]):
        proc = subprocess.run([sys.executable, "-m", "floqheat.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0
        assert proc.stderr.count("white-noise regime questionable") == 1
        assert proc.stderr.startswith("warning: white-noise regime "
                                      "questionable: hbar*Omega")
        assert "UserWarning" not in proc.stderr
        for _ in range(2):    # and once again in the next run of the process
            code, _, err = run(capsys, *argv)
            assert code == 0 and err.count("warning: white-noise regime") == 1


def test_strong_drive_runs_at_the_drive_order(capsys):
    # without --nmax, qme truncates at the drive's order (34 here), so E
    # matches a converged explicit order instead of a fixed 15 sidebands
    lines = []
    for extra in ((), ("--nmax", "40")):
        code, out, err = run(capsys, "power", "--beta", "0.3", "--drive", "0.02",
                             *extra)
        assert code == 0 and "below the drive's sideband order" not in err
        lines.append(out.split("E = ")[1])
    assert lines[0] == lines[1] == "+0.8434\n"


def test_unbounded_drive_order_exits_3(capsys):
    # the drive's order at Omega = 1e-6 omega_0 is 70839 sidebands
    code, _, err = run(capsys, "power", "--drive", "1e-6")
    assert code == 3
    assert "invalid input: the drive needs 70839 sidebands (qme)" in err


def test_order_below_the_drive_printed_once_per_run(capsys, tmp_path):
    # two sweep points raise the same notice; pert1 runs at one sideband
    # by definition and raises none
    code, _, err = run(capsys, "sweep", "--beta", "0.3", "--drive", "0.02",
                       "--parameter", "theta", "--values", "0.5,0.5",
                       "--methods", "qme,pert1", "--nmax", "8",
                       "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    notice = "warning: n_max = 8 below the drive's sideband order 34 (qme)\n"
    assert err.count("below the drive's sideband order") == 1 and notice in err


def test_sweep_flag_lines_name_the_swept_value(capsys, tmp_path):
    # each flagged row says at which value of the swept parameter it sits
    code, _, err = run(capsys, "sweep", "--parameter", "theta",
                       "--values", "0.1,0.5", "--nmax", "3",
                       "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    for theta in (0.1 * np.pi, 0.5 * np.pi):
        assert (f"  flagged qme @ theta={theta:.3e}: ok; n_max below drive "
                "order\n") in err
    assert "@ beta=" not in err


def test_power_prints_each_flagged_status(capsys):
    # each row below the drive's order carries its status, as a sweep's do
    code, out, err = run(capsys, "power", "--methods", "qme,qle", "--nmax", "3")
    assert code == 0
    assert out.count("P14 = ") == 2
    for method in ("qme", "qle"):
        assert f"  flagged {method}: ok; n_max below drive order\n" in err


def test_unknown_config_key_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("network: {omega: [1.0], kappa: [0.1], typo: 1}\n"
                    "modulation: {beta: 0, Omega: 1, theta: [0], mask: [0]}\n")
    code, _, err = run(capsys, "power", "--config", str(path))
    assert code == 3
    assert "typo" in err


@pytest.mark.parametrize("net_extra", [
    {"N": "abc"},
    {"couplings": [[1, 2, [1], 0]]},
    {"hermitian": "false"},
    {"couplings": [[1.7, 2, 1e9, 0.0]]},
])
def test_malformed_config_value_exits_3(capsys, tmp_path, net_extra):
    cfg = chain_config(tmp_path, **net_extra)
    code, _, err = run(capsys, "power", "--config", str(cfg))
    assert code == 3
    assert "invalid input" in err and "Traceback" not in err


def test_invalid_network_exits_3(capsys, tmp_path):
    cfg = chain_config(tmp_path, kappa=[0.0] * 4)
    code, _, err = run(capsys, "power", "--config", str(cfg))
    assert code == 3
    assert "kappa" in err


def test_non_finite_config_value_exits_3(capsys, tmp_path):
    # YAML .nan parses to a float; validation must stop it before any solver
    cfg = chain_config(tmp_path, T=[float("nan"), 0.0, 0.0, 0.0])
    assert ".nan" in cfg.read_text()
    code, _, err = run(capsys, "power", "--config", str(cfg))
    assert code == 3
    assert "T must be finite" in err


def test_solver_failure_exits_2(capsys):
    # a tolerance below round-off exhausts the quadrature's panel budget
    code, _, err = run(capsys, "power", "--methods", "qle", "--nmax", "2",
                       "--quad-tol", "1e-300")
    assert code == 2
    assert "solver failure" in err and "quadrature stalled" in err


@pytest.mark.parametrize("command", ["power", "compare"])
def test_negative_nmax_exits_3(capsys, command):
    code, _, err = run(capsys, command, "--nmax", "-1")
    assert code == 3
    assert "invalid input" in err and "n_max must be nonnegative" in err


def test_unknown_method_exits_3(capsys):
    code, _, err = run(capsys, "power", "--methods", "sorcery")
    assert code == 3


SHIPPED_CONFIG = str(pathlib.Path(__file__).resolve().parent.parent
                     / "demos" / "chain.yaml")


@pytest.mark.parametrize("argv", [
    ("power", "--quad-tol", "0"),
    ("power", "--quad-tol", "-1e-6"),
    ("power", "--quad-tol", "nan"),
    ("power", "--quad-tol", "inf"),
    ("compare", "--quad-tol", "0"),
    ("fig3a", "--quad-tol", "0"),
    ("fig4", "--parallel", "2"),
    ("fig7", "--t-hot", "inf"),
    ("sweep", "--parameter", "Omega", "--values", "0", "--t-hot", "nan"),
    ("power", "--nmax", "1.5"),
    ("power", "--nmax", "two"),
    ("fig6", "--nmax", "-1"),
    ("power", "--t-hot", "-1"),
    ("power", "--methods", ""),
    ("sweep", "--parameter", "beta", "--values", "0,nan"),
    ("sweep", "--parameter", "beta", "--values", "0,x"),
    ("sweep", "--parameter", "gamma", "--values", "0"),
    ("sweep", "--values", "0"),
    ("power", "--no-such-flag"),
    ("power", "--parallel", "2"),
    ("compare", "--out", "x.csv"),
    ("compare", "--methods", "qme"),
    ("spectrum", "--methods", "qle"),
    ("spectrum", "--quad-tol", "1e-6"),
    ("fig4", "--config", SHIPPED_CONFIG),
    ("fig6", "--quad-tol", "-5"),
    ("fig3b", "--methods", "qme"),
    ("fig7", "--quad-tol", "1e-6"),
    ("no-such-command",),
    (),
])
def test_usage_errors_exit_3(capsys, tmp_path, monkeypatch, argv):
    # malformed values, unknown and removed flags (the process pool's
    # worker count among them): rejected before any solver starts, and
    # nothing is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "invalid input" in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    for argv in (["--help"], ["power", "--help"], ["fig6", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


CHAIN = {"--config", "--beta", "--theta", "--drive"}
SWEEP = {"--nmax", "--quad-tol", "--methods", "--t-hot", "--out"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {name: {s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")}
               for name, p in sub.choices.items()}
    assert options == {
        "power": CHAIN | SWEEP,
        "spectrum": CHAIN | {"--nmax", "--t-hot", "--out"},
        "sweep": CHAIN | SWEEP | {"--parameter", "--values"},
        "compare": CHAIN | {"--nmax", "--quad-tol", "--t-hot"},
        "fig3a": SWEEP,
        "fig3b": SWEEP - {"--methods", "--quad-tol"},
        "fig4": SWEEP,
        "fig6": {"--nmax", "--t-hot", "--out"},
        "fig7": SWEEP - {"--methods", "--quad-tol"},
    }
    assert sum(map(len, options.values())) == 53


def test_closed_form_logs_the_regime_finding(capsys):
    # at the defaults hbar*Omega is above 0.1 kB T_hot: a closed row says so
    # like every other row
    code, out, err = run(capsys, "power", "--methods", "closed")
    assert code == 0 and "dP =" in out
    assert err.count("white-noise regime questionable") == 1
    assert err.startswith("warning: white-noise regime questionable: hbar*Omega")


def test_power_closed_form(capsys, tmp_path):
    out_csv = tmp_path / "closed.csv"
    code, out, _ = run(capsys, "power", "--methods", "closed,qme",
                       "--out", str(out_csv))
    assert code == 0
    assert out.count("dP =") == 2
    with open(out_csv) as fh:
        closed, qme = list(csv.DictReader(fh))
    assert closed["method"] == "closed" and closed["status"] == "ok"
    for key in ("P14_W", "P41_W", "E"):
        assert closed[key] == "nan"
    net, mod = chain(0.05, 0.5)
    expected = closed_form_delta_power(net, mod)
    assert closed["dP_W"] == f"{expected:.12e}"
    # same sign as the full solver's flux difference
    assert np.sign(float(closed["dP_W"])) == np.sign(float(qme["dP_W"]))


def test_sweep_command(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--parameter", "beta",
                       "--values", "0,0.02,0.04", "--methods", "qme",
                       "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    betas = [float(r["beta_rad_s"]) for r in rows]
    assert betas == pytest.approx([0.0, 0.02 * OMEGA0, 0.04 * OMEGA0])


def test_theta_sweep_in_pi_units(capsys, tmp_path):
    out_csv = tmp_path / "theta.csv"
    code, _, _ = run(capsys, "sweep", "--parameter", "theta",
                     "--values=-0.5,0,0.5", "--methods", "pert1",
                     "--beta", "0.02", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    thetas = [float(r["theta_rad"]) for r in rows]
    assert thetas == pytest.approx([-0.5 * np.pi, 0.0, 0.5 * np.pi])
    e_vals = [float(r["E"]) for r in rows]
    assert e_vals[0] == pytest.approx(-e_vals[2], abs=1e-9)


def test_spectrum_command(capsys, tmp_path):
    out_csv = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--nmax", "4",
                       "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["omega_rad_s", "source_bath", "observer",
                      "spectral_power_W_per_rad_s"]
    pairs = {(r[1], r[2]) for r in rows}
    assert pairs == {("1", "4"), ("4", "1")}


def test_spectrum_nmax_zero_is_used(capsys, tmp_path):
    # --nmax 0 is a truncation order, not a request for the default
    out_csv = tmp_path / "spec0.csv"
    code, _, _ = run(capsys, "spectrum", "--nmax", "0", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = [r for r in csv.DictReader(fh) if r["source_bath"] == "1"]
    net, mod = chain(0.05, 0.5)
    assert len(rows) == default_spectrum_grid(net, mod, 0).size


def test_compare_command(capsys):
    code, out, _ = run(capsys, "compare", "--beta", "0.02", "--theta", "0.5")
    assert code == 0
    assert "cross-validation PASS" in out


def test_compare_prints_each_flagged_status(capsys):
    code, out, _ = run(capsys, "compare", "--beta", "0.02", "--nmax", "6")
    assert code == 0
    for method in ("qme", "qle"):
        assert f"  flagged {method}: ok; n_max below drive order\n" in out
    assert "flagged oracle" not in out
    assert out.endswith("cross-validation PASS\n")


def test_compare_without_hot_bath_passes(capsys):
    code, out, _ = run(capsys, "compare", "--t-hot", "0")
    assert code == 0
    assert "max rel deviation 0.000e+00" in out
    assert "cross-validation PASS" in out


def test_fig4_preset_small(capsys, tmp_path, monkeypatch):
    # shrink the preset grid via nmax to keep the unit test fast
    out_csv = tmp_path / "fig4.csv"
    code, _, _ = run(capsys, "fig4", "--methods", "pert1", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 41
    zero_rows = [r for r in rows if abs(float(r["theta_rad"])) < 1e-12]
    for r in zero_rows:
        assert abs(float(r["E"])) < 1e-9


def test_fig6_preset(capsys, tmp_path):
    out_csv = tmp_path / "fig6.csv"
    code, out, _ = run(capsys, "fig6", "--nmax", "3", "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()


def test_fig3a_preset_normalized(capsys, tmp_path):
    out_csv = tmp_path / "fig3a.csv"
    code, _, _ = run(capsys, "fig3a", "--methods", "qme",
                     "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 13
    for r in rows:
        if float(r["beta_rad_s"]) == 0.0:
            assert float(r["P14_norm"]) == pytest.approx(1.0, rel=1e-12)
        else:
            # modulation suppresses the end-to-end transfer
            assert float(r["P14_norm"]) < 1.0


def test_flagged_rows_normalize_but_errors_do_not():
    # a row flagged "ok; ..." holds a computed power and may be the beta = 0
    # baseline; an error row holds none
    from floqheat.cli import _normalized_rows
    from floqheat.scenarios import SweepRow
    nan = float("nan")
    short = "ok; n_max below drive order"
    rows = [SweepRow("qle", 0.0, DRIVE, 0.5, 2.0, 4.0, nan, nan, short),
            SweepRow("qle", 1e12, DRIVE, 0.5, 1.0, 1.0, nan, nan, short),
            SweepRow("qme", 0.0, DRIVE, 0.5, nan, nan, nan, nan, "error: x"),
            SweepRow("qme", 1e12, DRIVE, 0.5, 1.0, 1.0, nan, nan)]
    norms = [(n14, n41) for _, n14, n41 in _normalized_rows(rows)]
    assert norms[:2] == [(1.0, 2.0), (0.5, 0.5)]
    assert np.isnan(norms[2:]).all()


def test_fig7_preset(capsys, tmp_path):
    out_csv = tmp_path / "fig7.csv"
    code, _, _ = run(capsys, "fig7", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"qme", "pert1", "pert2"}
    assert len(rows) == 3 * 13


def test_fig3b_preset(capsys, tmp_path):
    out_csv = tmp_path / "fig3b.csv"
    code, _, _ = run(capsys, "fig3b", "--nmax", "8", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"beta", "theta", "dP_exact_W", "dP_pa1_W",
                            "dP_pa2_W", "dP_closed_W"}
    assert len(rows) == 2 * 13
    # at beta = 0 every estimate vanishes
    for r in rows:
        if float(r["beta"]) == 0.0:
            assert float(r["dP_exact_W"]) == pytest.approx(0.0, abs=1e-30)
