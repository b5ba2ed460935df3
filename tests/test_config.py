import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from floqheat import ConfigError, load_config
from floqheat.config import parse_config

from conftest import COUPLING, DRIVE, KAPPA, OMEGA0, chain


def chain_doc(**overrides):
    doc = {
        "network": {
            "omega": [OMEGA0] * 4,
            "kappa": [KAPPA] * 4,
            "T": [300.0, 0.0, 0.0, 0.0],
            "hermitian": True,
            "couplings": [
                [1, 2, COUPLING, 0.0],
                [2, 3, COUPLING, 0.0],
                [3, 4, COUPLING, 0.0],
            ],
        },
        "modulation": {
            "beta": 0.05 * OMEGA0,
            "Omega": DRIVE,
            "theta": [0.0, 0.0, 1.5707963267948966, 0.0],
            "mask": [0, 1, 1, 0],
        },
    }
    doc.update(overrides)
    return doc


def test_roundtrip_matches_builder(tmp_path):
    path = tmp_path / "chain.yaml"
    path.write_text(yaml.safe_dump(chain_doc()))
    net, mod = load_config(path)
    ref_net, ref_mod = chain(0.05, 0.5)
    assert np.allclose(net.omega, ref_net.omega)
    assert np.allclose(net.kappa, ref_net.kappa)
    assert np.allclose(net.g, ref_net.g)
    assert np.allclose(net.T, [300.0, 0.0, 0.0, 0.0])
    assert mod.beta == pytest.approx(ref_mod.beta)
    assert mod.Omega == pytest.approx(ref_mod.Omega)
    assert np.allclose(mod.theta, ref_mod.theta)
    assert np.array_equal(mod.mask, ref_mod.mask)


def test_hermitian_mirrors_missing_entries():
    doc = chain_doc()
    doc["network"]["couplings"] = [[1, 2, 1e9, 2e8]]
    net, _ = parse_config(doc)
    assert net.g[0, 1] == 1e9 + 2e8j
    assert net.g[1, 0] == 1e9 - 2e8j


def test_explicit_mirror_wins_over_auto():
    doc = chain_doc()
    doc["network"]["hermitian"] = False
    doc["network"]["couplings"] = [[1, 2, 1e9, 0.0], [2, 1, 5e8, 0.0]]
    net, _ = parse_config(doc)
    assert net.g[0, 1] == 1e9
    assert net.g[1, 0] == 5e8


def test_one_sided_coupling_needs_hermitian():
    doc = chain_doc()
    doc["network"]["hermitian"] = False
    with pytest.raises(ConfigError, match=r"coupling \[1, 2\] has no \[2, 1\] "
                                          r"entry; list both or set hermitian: true"):
        parse_config(doc)
    doc["network"]["couplings"] = [[2, 1, 1e9, 0.0], [1, 2, 1e9, 0.0],
                                   [3, 2, 1e9, 0.0]]
    with pytest.raises(ConfigError, match=r"coupling \[3, 2\] has no \[2, 3\]"):
        parse_config(doc)


def test_constants_section_rejected():
    # hbar and kB are the SI values; a section overriding them is an input error
    with pytest.raises(ConfigError, match="constants"):
        parse_config(chain_doc(constants={"hbar": 1.0}))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(chain_doc(bogus=1))
    doc = chain_doc()
    doc["network"]["coupling"] = []  # typo for couplings
    with pytest.raises(ConfigError, match="coupling"):
        parse_config(doc)
    doc = chain_doc()
    doc["modulation"]["phase"] = 0.0
    with pytest.raises(ConfigError, match="phase"):
        parse_config(doc)


def test_missing_sections_and_keys():
    with pytest.raises(ConfigError, match="modulation"):
        parse_config({"network": chain_doc()["network"]})
    doc = chain_doc()
    del doc["modulation"]["beta"]
    with pytest.raises(ConfigError, match="beta"):
        parse_config(doc)
    doc = chain_doc()
    del doc["network"]["kappa"]
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(doc)


def test_vector_length_and_index_checks():
    doc = chain_doc()
    doc["network"]["N"] = 5
    with pytest.raises(ConfigError, match="N"):
        parse_config(doc)
    doc = chain_doc()
    doc["network"]["couplings"] = [[0, 2, 1.0, 0.0]]
    with pytest.raises(ConfigError, match="indices"):
        parse_config(doc)
    doc = chain_doc()
    doc["network"]["couplings"] = [[1, 1, 1.0, 0.0]]
    with pytest.raises(ConfigError, match="indices"):
        parse_config(doc)
    doc = chain_doc()
    doc["modulation"]["mask"] = [0, 1, 2, 0]
    with pytest.raises(ConfigError, match="mask"):
        parse_config(doc)
    doc = chain_doc()
    doc["modulation"]["theta"] = [0.0]
    with pytest.raises(ConfigError, match="theta"):
        parse_config(doc)


@pytest.mark.parametrize("key, value, match", [
    ("N", "abc", "N"),
    ("N", [1], "N"),
    ("N", 4.7, "N"),
    ("N", True, "N"),
    ("couplings", 5, "couplings"),
    ("couplings", [[1, 2, [1], 0]], "coupling entries"),
    ("couplings", [[1, 2, "x", 0]], "coupling entries"),
    ("hermitian", "false", "hermitian"),
    ("couplings", [[1.7, 2, 1e9, 0]], "coupling indices must be integers"),
    ("couplings", [[True, 2, 1e9, 0]], "coupling indices must be integers"),
], ids=["N-text", "N-list", "N-float", "N-bool", "couplings-scalar",
        "coupling-list-value", "coupling-text-value", "hermitian-text",
        "coupling-float-index", "coupling-bool-index"])
def test_malformed_network_values_rejected(key, value, match):
    # each of these once escaped as a TypeError, read as a solver failure,
    # or was silently coerced (N truncated, a string read as hermitian)
    doc = chain_doc()
    doc["network"][key] = value
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


def test_unsigned_exponent_literals_accepted(tmp_path):
    # YAML 1.1 resolves 8.45e12 (no exponent sign) as a string; the loader
    # must still read it as the number it plainly is
    path = tmp_path / "plain.yaml"
    path.write_text(
        "network:\n"
        "  omega: [1.69e14]\n"
        "  kappa: [2.197e12]\n"
        "modulation: {beta: 8.45e12, Omega: 8.45e12, theta: [0.0], mask: [1]}\n"
    )
    net, mod = load_config(path)
    assert net.omega[0] == pytest.approx(1.69e14)
    assert mod.beta == pytest.approx(8.45e12)


def test_non_numeric_scalar_rejected():
    doc = chain_doc()
    doc["modulation"]["beta"] = "fast"
    with pytest.raises(ConfigError, match="beta"):
        parse_config(doc)
    doc = chain_doc()
    doc["modulation"]["Omega"] = True
    with pytest.raises(ConfigError, match="Omega"):
        parse_config(doc)


def test_non_mapping_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unparseable_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("network: [unclosed\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


def test_import_leaves_yaml_and_the_pool_unloaded():
    # YAML is read only by load_config, and no module starts worker
    # processes: importing the package and the CLI pays for neither, which
    # keeps the import (the bench's setup_s) light
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, floqheat, floqheat.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('yaml', 'multiprocessing', "
            "'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, check=True)
    assert proc.stdout.strip() == "[]"
