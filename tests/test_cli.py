"""CLI contract: output schemas, determinism, manifests, exit codes."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from spinring import __version__, amplitude, cli, entangle
from spinring.amplitude import AmplitudeResult, BesselTruncationError
from spinring.serialize import load_manifest, manifest_path_for


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_amplitude_all_methods_agree(capsys):
    code, out = run_cli(
        capsys, "amplitude", "--n", "5", "--d", "1", "--f=-0.25",
        "--beta", "1214.3", "--method", "all",
    )
    assert code == 0
    doc = json.loads(out)
    assert {r["method"] for r in doc["records"]} == {"spectral", "bessel", "oracle"}
    for rec in doc["records"]:
        assert rec["xi"] == pytest.approx(0.9998, abs=2e-3)
    assert doc["max_xi_deviation"] < 1e-8


def test_amplitude_blocked_configuration(capsys):
    code, out = run_cli(
        capsys, "amplitude", "--n", "4", "--d", "2", "--f", "0.5",
        "--beta", "100", "--method", "spectral",
    )
    assert code == 0
    assert json.loads(out)["xi"] <= 1e-12


def test_amplitude_trivial_point(capsys):
    code, out = run_cli(capsys, "amplitude", "--n", "3", "--d", "0", "--beta", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["xi"] == 1.0
    assert set(doc) == {"n", "d", "f", "beta", "xi", "value_re", "value_im", "method"}


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "amplitude", "--n", "2", "--d", "0", "--beta", "1")[0] == 2
    assert run_cli(capsys, "amplitude", "--n", "5", "--d", "0")[0] == 2  # missing beta
    assert run_cli(capsys, "nosuchcommand")[0] == 2


def test_method_disagreement_exits_3(capsys, monkeypatch):
    def skewed(query):
        res = cli.amplitude_spectral(query)
        value = res.value * (1.0 - 1e-6)
        return AmplitudeResult(value=value, xi=abs(value), method="bessel")

    monkeypatch.setattr(cli, "amplitude_bessel", skewed)
    code, out = run_cli(
        capsys, "amplitude", "--n", "5", "--d", "1", "--f", "0.1",
        "--beta", "3.0", "--method", "all",
    )
    assert code == 3
    assert json.loads(out)["max_xi_deviation"] > 1e-8


def test_method_phase_disagreement_exits_3(capsys, monkeypatch):
    # right magnitude, wrong phase: only the complex comparison sees it
    def rotated(query):
        res = cli.amplitude_spectral(query)
        return AmplitudeResult(value=res.value * 1j, xi=res.xi, method="bessel")

    monkeypatch.setattr(cli, "amplitude_bessel", rotated)
    code, out = run_cli(
        capsys, "amplitude", "--n", "5", "--d", "1", "--f", "0.1",
        "--beta", "3.0", "--method", "all",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["max_xi_deviation"] <= 1e-8
    assert doc["max_value_deviation"] > 1e-8


def test_bessel_truncation_exits_3(capsys, monkeypatch):
    def truncated(query):
        raise BesselTruncationError("series tail above 1e-18")

    monkeypatch.setattr(cli, "amplitude_bessel", truncated)
    code = cli.main(["amplitude", "--n", "5", "--d", "1", "--beta", "3.0", "--method", "bessel"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: series tail")


@pytest.mark.parametrize("beta", ["1e300", "inf", "nan", "12000.5"])
def test_bessel_route_rejects_beta_before_sizing_a_ladder(capsys, monkeypatch, beta):
    def refuse(*args):
        raise AssertionError("ladder allocated")

    monkeypatch.setattr(amplitude, "bessel_j_ladder", refuse)
    monkeypatch.setattr(amplitude, "_ladder_orders", refuse)
    code = cli.main(["amplitude", "--n", "5", "--d", "1", f"--beta={beta}", "--method", "bessel"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_table1_full_window_passes(tmp_path, capsys):
    out_csv = tmp_path / "table1.csv"
    code, _ = run_cli(
        capsys, "table1", "--twists=-0.25,0.25", "--out", str(out_csv),
    )
    assert code == 0
    rows = read_rows(out_csv)
    assert len(rows) == 10
    assert all(row["passed"] == "true" for row in rows)
    assert manifest_path_for(out_csv).exists()
    golden = Path(__file__).parent / "data" / "table1_quarter_twists.csv"
    assert out_csv.read_bytes() == golden.read_bytes()


def test_table1_short_window_reports_best_in_window(tmp_path, capsys):
    out_csv = tmp_path / "short.csv"
    code, _ = run_cli(
        capsys, "table1", "--beta-max", "200", "--twists=-0.25,0.25",
        "--out", str(out_csv),
    )
    assert code == 4
    rows = {(r["n"], r["d"]): r for r in read_rows(out_csv)}
    assert rows[("5", "2")]["passed"] == "true"
    assert rows[("5", "3")]["passed"] == "true"
    assert rows[("5", "1")]["passed"] == "false"
    for row in rows.values():
        assert float(row["beta_best"]) <= 200.0


def test_table1_degenerate_window_fails_everywhere(tmp_path, capsys):
    out_csv = tmp_path / "tiny.csv"
    code, _ = run_cli(
        capsys, "table1", "--beta-max", "1", "--twists=-0.25,0.25",
        "--out", str(out_csv),
    )
    assert code == 4
    assert all(float(r["xi_best"]) < 0.99 for r in read_rows(out_csv))


def test_table1_config_document(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"beta_max": 200.0, "f_candidates": [-0.25, 0.25]}))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a, _ = run_cli(capsys, "table1", "--config", str(config), "--out", str(out_a))
    code_b, _ = run_cli(
        capsys, "table1", "--beta-max", "200", "--twists=-0.25,0.25", "--out", str(out_b)
    )
    assert code_a == code_b == 4
    assert out_a.read_bytes() == out_b.read_bytes()
    # a flag overrides the config document
    out_c = tmp_path / "c.csv"
    code_c, _ = run_cli(
        capsys, "table1", "--config", str(config), "--beta-max", "1", "--out", str(out_c)
    )
    assert code_c == 4
    assert all(float(r["xi_best"]) < 0.99 for r in read_rows(out_c))


def test_blockage_command(tmp_path, capsys):
    out_json = tmp_path / "blockage.json"
    code, _ = run_cli(
        capsys, "blockage", "--nn", "1,2,3", "--samples", "50", "--out", str(out_json)
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert [r["quarter_rings"] for r in doc["reports"]] == [1, 2, 3]
    for rep in doc["reports"]:
        assert rep["analytic_zero"] is True
        assert rep["max_xi_over_samples"] <= 1e-12


def test_table1_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"beta_max": 200.0, "foo": 1}))
    assert cli.main(["table1", "--config", str(config)]) == 2
    assert "foo" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, key",
    [
        ({"beta_max": "x"}, "beta_max"),
        ({"beta_step": True}, "beta_step"),
        ({"refine_tol": None}, "refine_tol"),
        ({"f_candidates": 0.25}, "f_candidates"),
        ({"f_candidates": [0.25, "a"]}, "f_candidates"),
        ([1], "JSON object"),
        ("beta_max", "JSON object"),
    ],
)
def test_table1_config_of_wrong_type_exits_2(tmp_path, capsys, document, key):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(document))
    assert cli.main(["table1", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err


def test_blockage_without_samples_exits_2(capsys):
    code, out = run_cli(capsys, "blockage", "--samples", "0", "--nn", "1")
    assert code == 2
    assert out == ""


def test_entangle_command(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, out = run_cli(
        capsys, "entangle", "--n", "4", "--beta-max", "50", "--out", str(curve)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best"]["entropy_ebits"] >= 0.99
    ref = doc["reference_point"]
    assert ref["beta"] == pytest.approx(8.5 * math.pi, abs=1e-9)
    assert ref["claimed_entropy_ebits"] == 1.0
    assert ref["entropy_shortfall"] > 0.1
    header = curve.read_text().splitlines()[0]
    assert header == "beta,entropy_ebits,branch_overlap"


def test_entangle_out_computes_the_curve_once(tmp_path, capsys, monkeypatch):
    points = []
    curve = entangle.entanglement_curve

    def counted(betas, *args, **kwargs):
        points.append(len(betas))
        return curve(betas, *args, **kwargs)

    monkeypatch.setattr(cli, "entanglement_curve", counted)
    monkeypatch.setattr(entangle, "entanglement_curve", counted)
    code, _ = run_cli(
        capsys, "entangle", "--beta-max", "5", "--step", "0.01", "--out", str(tmp_path / "c.csv")
    )
    assert code == 0
    assert points == [501]


def test_entangle_window_shorter_than_step(capsys):
    code, out = run_cli(capsys, "entangle", "--beta-max", "0.001", "--step", "0.005")
    assert code == 0
    best = json.loads(out)["best"]
    # entanglement only grows this early, so the window end wins
    assert best["beta"] == pytest.approx(0.001, abs=1e-7)
    assert best["entropy_ebits"] < 1e-5


def test_multiparty_command(tmp_path, capsys):
    out_json = tmp_path / "plan.json"
    code, _ = run_cli(
        capsys, "multiparty", "--n", "9", "--sites", "1,4,7",
        "--beta-max", "9000", "--twists=-0.25,0.25", "--out", str(out_json),
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    pair = {(p["site_a"], p["site_b"]): p for p in doc["pairs"]}[(1, 4)]
    assert pair["f"] == -0.25
    assert abs(pair["beta"] - 8481.4) <= 0.5
    assert abs(pair["xi"] - 0.9988) <= 2e-3
    assert "fidelity_map" in doc


def test_sweep_and_byte_determinism(tmp_path, capsys):
    args = ("sweep", "--n", "5", "--d", "2", "--f-step", "0.25",
            "--beta-max", "20", "--beta-step", "0.1")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_stdout_matches_out_file(tmp_path, capsys):
    args = ("sweep", "--n", "6", "--d", "2", "--f-step", "0.1", "--beta-max", "5")
    out_csv = tmp_path / "grid.csv"
    code, stdout = run_cli(capsys, *args)
    assert code == 0
    assert run_cli(capsys, *args, "--out", str(out_csv)) == (0, "")
    assert stdout.encode() == out_csv.read_bytes()
    assert stdout.count("\n") == 1 + 11 * 101


def test_sweep_zero_twist_step_exits_2(capsys):
    assert run_cli(capsys, "sweep", "--n", "5", "--d", "2", "--f-step", "0")[0] == 2


def test_sweep_zero_time_step_exits_2(capsys):
    assert run_cli(capsys, "sweep", "--n", "5", "--d", "2", "--beta-step", "0")[0] == 2


def test_manifest_replay_reproduces_bytes(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys, "sweep", "--n", "4", "--d", "2", "--f-step", "0.5",
        "--beta-max", "10", "--beta-step", "0.1", "--out", str(out_csv),
    )
    assert code == 0
    original = out_csv.read_bytes()
    manifest = load_manifest(manifest_path_for(out_csv))
    assert manifest.command == "sweep"
    assert manifest.artifact_version == __version__
    out_csv.unlink()
    code, _ = run_cli(capsys, "replay", "--manifest", str(manifest_path_for(out_csv)))
    assert code == 0
    assert out_csv.read_bytes() == original


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spinring.cli", "amplitude", "--n", "4", "--d", "2",
         "--f", "0", "--beta", "3.141592653589793"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["xi"] == pytest.approx(1.0, abs=1e-12)
