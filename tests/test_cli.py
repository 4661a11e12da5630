"""CLI contract: output schemas, determinism, manifests, exit codes."""

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes, scan_times
from spinring import __version__, amplitude, cli, entangle, ring, serialize
from spinring.amplitude import AmplitudeResult, BesselTruncationError, grid_count, xi_profile
from spinring.bessel import bessel_j_ladder
from spinring.optimize import SearchSpec
from spinring.ring import RingConfig
from spinring.serialize import csv_text, load_manifest, manifest_path_for


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def refuse_constant(token):
    """`json.loads` hook: the bare tokens NaN and Infinity are not JSON."""
    raise ValueError(f"{token} is not JSON")


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


def test_routes_agree_at_a_twist_of_two_to_the_fortieth(capsys):
    # f = 2^40 is an untwisted ring: every route reduces the twist mod N
    # before it forms a phase, so they agree as closely as at f = 0
    code, out = run_cli(
        capsys, "amplitude", "--n", "5", "--d", "1", "--f", "1099511627776",
        "--beta", "3", "--method", "all",
    )
    assert code == 0
    assert json.loads(out)["max_value_deviation"] <= 1e-12


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


@pytest.mark.parametrize("method", ["spectral", "bessel", "oracle", "all"])
@pytest.mark.parametrize(
    "flags",
    [("--j", "1e-320"),  # t = beta/(4J) overflows
     ("--b", "1e308")],  # the diagonal D, so D*t, overflows
)
def test_a_query_whose_time_or_phase_overflows_exits_2(capsys, method, flags):
    code, out = run_cli(
        capsys, "amplitude", "--n", "5", "--d", "1", "--beta", "10", *flags, "--method", method,
    )
    assert code == 2
    assert out == ""


def test_a_nan_route_is_a_nan_deviation(capsys, monkeypatch):
    # a route that reads nan must not leave max_xi_deviation at a vacuous 0.0
    def lost(query):
        return AmplitudeResult(value=complex(math.nan, math.nan), xi=math.nan, method="bessel")

    monkeypatch.setattr(cli, "amplitude_bessel", lost)
    code, out = run_cli(
        capsys, "amplitude", "--n", "5", "--d", "1", "--beta", "3.0", "--method", "all",
    )
    assert code == 3
    doc = json.loads(out, parse_constant=refuse_constant)
    assert doc["max_xi_deviation"] == "nan" and doc["max_value_deviation"] == "nan"
    assert doc["records"][1]["xi"] == "nan"


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


def test_bessel_route_bounds_its_ladder(capsys, monkeypatch):
    # a 5,000,000-site ring's ladders run to order 20,000,000, but the sweep
    # stops where (beta/2)^o / o! underflows: order 157 at beta = 1
    swept = []

    def recorded(n_max, x):
        swept.append(n_max)
        return bessel_j_ladder(n_max, x)

    monkeypatch.setattr(amplitude, "bessel_j_ladder", recorded)
    code, _ = run_cli(capsys, "amplitude", "--n", "5000000", "--d", "1", "--beta", "1", "--method", "bessel")
    assert code == 0
    assert swept == [156]


@pytest.mark.parametrize("n", ["1000000", "2000000"])
def test_bessel_route_answers_on_large_rings(capsys, n):
    # the tail rungs d' + kN of a large ring are all past the underflow order
    records = {}
    for method in ("bessel", "spectral"):
        code, out = run_cli(capsys, "amplitude", "--n", n, "--d", "1", "--beta", "1", "--method", method)
        assert code == 0
        records[method] = json.loads(out)
    bessel, spectral = records["bessel"], records["spectral"]
    assert (bessel.pop("method"), spectral.pop("method")) == ("bessel", "spectral")
    assert bessel.keys() == spectral.keys()
    for key, value in bessel.items():
        assert abs(value - spectral[key]) <= 1e-12


@pytest.mark.parametrize("method", ["bessel", "all"])
def test_bessel_route_answers_at_the_least_subnormal_time(capsys, method):
    # beta / 2 rounds to 0 there, and its logarithm must not be taken
    argv = ["amplitude", "--n", "3", "--d", "0", "--beta", "5e-324", "--method", method]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert {record["xi"] for record in doc.get("records", [doc])} == {1.0}


def test_readme_commands_run(tmp_path):
    # every `spinring` line in the README's shell blocks, with --out under tmp_path
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S) for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("spinring ")]
    assert len(commands) >= 6
    for argv in commands:
        argv = [str(tmp_path / a) if flag == "--out" else a for flag, a in zip(["", *argv], argv)]
        assert cli.main(argv) == 0, argv


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


def test_table1_eighth_twist_grid_matches_golden(tmp_path, capsys):
    # the benchmark's twist grid, spacing 1/8; the golden file predates the
    # bound-pruned coarse pass, which must not move a byte
    twists = ",".join(str(k / 8 - 0.5) for k in range(8))
    out_csv = tmp_path / "table1.csv"
    code, _ = run_cli(capsys, "table1", f"--twists={twists}", "--out", str(out_csv))
    assert code == 0
    golden = Path(__file__).parent / "data" / "table1_eighth_twists.csv"
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


def assert_failing_published_rows(rows):
    # the ten published rows first, so that an empty file cannot pass
    assert [(int(r["n"]), int(r["d"])) for r in rows] == [w[:2] for w in cli.PUBLISHED_WINDOWS]
    assert all(float(r["xi_best"]) < 0.99 for r in rows)


def test_table1_degenerate_window_fails_everywhere(tmp_path, capsys):
    out_csv = tmp_path / "tiny.csv"
    code, _ = run_cli(
        capsys, "table1", "--beta-max", "1", "--twists=-0.25,0.25",
        "--out", str(out_csv),
    )
    assert code == 4
    assert_failing_published_rows(read_rows(out_csv))


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
    assert_failing_published_rows(read_rows(out_c))


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
    # table1 and multiparty share one --config declaration; both keep the contract
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(document))
    for argv in (["table1"], ["multiparty", "--n", "9", "--sites", "1,4"]):
        assert cli.main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err


SEARCH_COMMANDS = (["table1"], ["multiparty", "--n", "9", "--sites", "1,4", "--twists=0.25"])


@pytest.mark.parametrize("command", SEARCH_COMMANDS, ids=["table1", "multiparty"])
@pytest.mark.parametrize(
    "flags, document",
    [
        (["--beta-step", "inf"], None),
        (["--beta-step", "nan"], None),
        ([], {"refine_tol": math.inf}),
        ([], {"beta_step": math.inf}),
    ],
    ids=["flag-inf", "flag-nan", "config-refine-tol", "config-beta-step"],
)
def test_non_finite_search_steps_exit_2(tmp_path, capsys, command, flags, document):
    if document is not None:
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(document))  # writes the bare token Infinity
        flags = ["--config", str(config)]
    out = tmp_path / "out"
    assert cli.main([*command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # each grid would need terabytes: numpy fails at once if the bound is missed
        ["table1", "--beta-step", "1e-7", "--beta-max", "1e6", "--twists=0.25"],
        ["multiparty", "--n", "9", "--sites", "1,4", "--beta-step", "1e-7", "--beta-max", "1e6"],
        ["sweep", "--n", "5", "--d", "1", "--beta-max", "1e15"],
        ["entangle", "--beta-max", "1e13"],
        ["blockage", "--nn", "1", "--samples", "200000000000"],
    ],
    ids=["table1", "multiparty", "sweep", "entangle", "blockage"],
)
def test_oversized_grids_exit_2_before_allocating(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{amplitude.MAX_GRID_POINTS:,}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, stack",
    [
        (["multiparty", "--n", "1000", "--sites", "1,2", "--twists", "grid"], "a stack of twist rates"),
        (["sweep", "--n", "1000", "--d", "1", "--f-step", "0.01"], "a stack of twist rates"),
        (["multiparty", "--n", "2000", "--sites", "1,2,4,8", "--twists", "0.25"], "a stack of mode weights"),
        (
            ["multiparty", "--n", "200", "--sites", ",".join(map(str, range(1, 201))), "--twists", "0.25"],
            "a list of site pairs",
        ),
    ],
    ids=["multiparty-rates", "sweep-rates", "multiparty-weights", "multiparty-pairs"],
)
def test_oversized_rate_and_weight_stacks_exit_2_before_they_are_built(
    tmp_path, capsys, monkeypatch, argv, stack
):
    # under a limit of 10,000 points every grid here fits, but not the 400 x 1000
    # and 101 x 1000 twist rates, the 6 x 2000 mode weights of a kernel or the
    # 19,900 pairs of 200 party sites
    monkeypatch.setattr(ring, "MAX_GRID_POINTS", 10_000)
    out = tmp_path / "out"
    codes = []
    argv = [*argv, "--beta-max", "1" if argv[0] == "multiparty" else "0", "--out", str(out)]
    assert peak_bytes(lambda: codes.append(cli.main(argv))) < 1 << 20
    assert codes == [2]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{stack} of " in err and "10,000" in err
    assert not out.exists()


def test_sweep_bounds_twists_times_times(tmp_path, capsys, monkeypatch):
    # 1,000,001 twists x 1,001 times: each axis fits, the grid does not
    def unreachable(*args):
        raise AssertionError("a profile was computed")

    monkeypatch.setattr(cli, "SpectralKernel", unreachable)
    out = tmp_path / "out"
    argv = ["sweep", "--n", "5", "--d", "1", "--f-step", "1e-6", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stack", [cli._TWIST_STACK, 10, 1])
def test_stacked_twist_profiles_are_each_twists_profile_bit_for_bit(monkeypatch, stack):
    # the landscape benchmark's 26 twists on a 7-ring, in stacks of 8,192, 10 and 1
    monkeypatch.setattr(cli, "_TWIST_STACK", stack)
    tables = []
    monkeypatch.setattr(cli, "_emit", lambda args, write, header, columns: tables.append(columns))
    argv = ["sweep", "--n", "7", "--d", "3", "--f-min=-0.4951", "--f-max=0.5049", "--f-step=0.04",
            "--beta-min=0.0053", "--beta-max=99.0053", "--beta-step=0.01"]
    assert cli.main(argv) == 0
    twists, _, profiles = tables[0]
    assert profiles.shape == (26, 9901)
    for f, row in zip(twists[:, 0], profiles):
        expected = xi_profile(RingConfig(7, f=f), 3, 0.0053, 0.01, 9901)
        assert np.array_equal(row.view(np.uint64), expected.view(np.uint64)), f


def test_main_builds_one_parser_per_process(tmp_path):
    # replay's inner main reuses the parser too
    cli.build_parser.cache_clear()
    out = tmp_path / "amp.json"
    assert cli.main(["amplitude", "--n", "5", "--d", "1", "--beta", "3", "--out", str(out)]) == 0
    assert cli.main(["replay", "--manifest", str(manifest_path_for(out))]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_documented_grids_fit():
    # the largest sweep run so far, the default table1 time grid, the
    # benchmark's landscape sweep and its protocol curve
    for points in (1_010_001, 250_001, 257_426, 100_001):
        amplitude.require_grid_points(points)


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
    # the scan makes each block of its curve once, on its way to the CSV, and
    # no whole-grid evaluation runs beside it
    points, blocks = [], entangle._curve_blocks

    def counted(kernel, step, count):
        for block in blocks(kernel, step, count):
            points.extend(block[0].tolist())
            yield block

    def whole_grid(*args):
        raise AssertionError("the curve was evaluated whole")

    monkeypatch.setattr(entangle, "_curve_blocks", counted)
    monkeypatch.setattr(amplitude.SpectralKernel, "xi_grid", whole_grid)
    code, _ = run_cli(
        capsys, "entangle", "--beta-max", "5", "--step", "0.01", "--out", str(tmp_path / "c.csv")
    )
    assert code == 0
    assert points == (0.01 * np.arange(501)).tolist()
    assert (tmp_path / "c.csv").read_bytes().count(b"\n") == 1 + 501


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


DATA = Path(__file__).parent / "data"


def test_entangle_curve_and_summary_match_golden(tmp_path, capsys):
    # the scan grid's curve, the polished best time and the reference reading;
    # the curve was written before the searches moved to per-point mode sums
    out_csv = tmp_path / "curve.csv"
    code, out = run_cli(
        capsys, "entangle", "--n", "4", "--beta-max", "20", "--step", "0.01",
        "--out", str(out_csv),
    )
    assert code == 0
    assert out_csv.read_bytes() == (DATA / "entangle_n4_beta20.csv").read_bytes()
    assert out.encode() == (DATA / "entangle_n4_beta20_summary.json").read_bytes()


def test_multiparty_plan_matches_golden(capsys):
    code, out = run_cli(
        capsys, "multiparty", "--n", "9", "--sites", "1,4,7", "--twists=-0.25,0.25",
        "--beta-max", "2000",
    )
    assert code == 0
    assert out.encode() == (DATA / "multiparty_n9_sites_1_4_7.json").read_bytes()


# (f, beta, xi) of each record and near optimum before the Newton polish,
# when golden-section searches refined them; the same for both twist grids
GOLDEN_SEARCH_TABLE1 = {
    (5, 1): ((0.25, 4718.38552536, 0.999999910392), (-0.25, 1214.29640786, 0.999836300361)),
    (5, 2): ((0.25, 2916.12261646, 0.999999765386), (-0.25, 162.509936157, 0.9999244627)),
    (5, 3): ((-0.25, 2916.12261646, 0.999999765386), (0.25, 162.509936157, 0.9999244627)),
    (5, 4): ((-0.25, 4718.38552536, 0.999999910392), (0.25, 1214.29640786, 0.999836300361)),
    (7, 1): ((-0.25, 4364.96792616, 0.999692326339),) * 2,
    (7, 2): ((0.25, 1942.59348084, 0.999412491059),) * 2,
    (7, 3): ((0.25, 3500.43249397, 0.999599553262),) * 2,
    (7, 4): ((-0.25, 3500.43249397, 0.999599553262),) * 2,
    (7, 5): ((-0.25, 1942.59348084, 0.999412491059),) * 2,
    (7, 6): ((0.25, 4364.96792616, 0.999692326339),) * 2,
}
GOLDEN_SEARCH_MULTIPARTY = ((1022.97142339, 0.997664854944), (1922.55738354, 0.997551557423))


def test_polished_goldens_keep_the_golden_search_values_as_a_floor():
    # each xi may only rise, each beta stays within the polish tolerance
    # (`SearchSpec.refine_tol`, 1e-4) and every published window still passes
    tol = SearchSpec().refine_tol
    for name in ("table1_eighth_twists.csv", "table1_quarter_twists.csv"):
        for row in read_rows(DATA / name):
            assert row["passed"] == "true"
            old = GOLDEN_SEARCH_TABLE1[int(row["n"]), int(row["d"])]
            for kind, (f, beta, value) in zip(("best", "match"), old):
                assert float(row[f"f_{kind}"]) == f
                assert float(row[f"xi_{kind}"]) >= value - 1e-15
                assert abs(float(row[f"beta_{kind}"]) - beta) <= tol
    doc = json.loads((DATA / "multiparty_n9_sites_1_4_7.json").read_text())
    for pair in doc["pairs"]:
        best = pair["near_optima"][0]
        assert (pair["beta"], pair["xi"]) == (best["beta"], best["xi"])
        for point, (beta, value) in zip(pair["near_optima"], GOLDEN_SEARCH_MULTIPARTY):
            assert point["xi"] >= value - 1e-15
            assert abs(point["beta"] - beta) <= tol


# the entangle summary's best before the Newton polish, when golden section
# refined it to a 1e-7 bracket: (beta, entropy_ebits, branch_overlap)
GOLDEN_SEARCH_ENTANGLE = (3.14159266171, 1.0, 3.22939941455e-09)


def test_polished_entangle_golden_keeps_the_golden_search_values_as_a_floor():
    # the entropy may only rise and the overlap only fall; beta stays within
    # the former search's 1e-7 bracket, and the polish lands on pi itself
    doc = json.loads((DATA / "entangle_n4_beta20_summary.json").read_text())
    best, (beta, entropy, overlap) = doc["best"], GOLDEN_SEARCH_ENTANGLE
    assert best["entropy_ebits"] >= entropy - 1e-15
    assert best["branch_overlap"] <= overlap
    assert abs(best["beta"] - beta) <= 1e-7
    assert abs(best["beta"] - math.pi) <= 1e-11


def test_config_refine_tol_sets_where_the_polish_stops(tmp_path, capsys):
    # the polish stops once a step moves beta by at most refine_tol: a loose
    # tolerance from --config stops it one Newton step after the coarse grid
    argv = ("multiparty", "--n", "9", "--sites", "1,4", "--twists=-0.25,0.25", "--beta-max", "2000")
    config = tmp_path / "loose.json"
    config.write_text(json.dumps({"refine_tol": 0.5}))
    plans = []
    for extra in ((), ("--config", str(config))):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        plans.append(json.loads(out)["pairs"][0])
    tight, loose = plans
    assert loose["beta"] != tight["beta"]
    assert abs(loose["beta"] - tight["beta"]) <= 0.5
    assert loose["xi"] <= tight["xi"]


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


class Discard(io.TextIOBase):
    """A text stream that keeps nothing it is sent."""

    def write(self, text):
        return len(text)


def test_printed_sweep_peaks_as_its_out_run(tmp_path):
    # stdout streams the blocks `--out` writes, at 40,000 and 320,000 rows alike;
    # a CSV joined whole before it is printed adds ~0.9 and ~15 MB
    peaks = {}
    for twists in (4, 32):
        argv = ["sweep", "--n", "5", "--d", "1", "--f-min", "0", f"--f-max={(twists - 1) / 8}",
                "--f-step", "0.125", "--beta-max", "99.99", "--beta-step", "0.01"]
        with contextlib.redirect_stdout(Discard()):
            assert cli.main(argv) == 0  # the first run builds what every later run reuses
            for sink in ("stdout", "out"):
                out = [] if sink == "stdout" else ["--out", str(tmp_path / "grid.csv")]
                peaks[twists, sink] = peak_bytes(lambda: cli.main([*argv, *out]))
        assert (tmp_path / "grid.csv").read_bytes().count(b"\n") == 1 + twists * 10_000
        assert abs(peaks[twists, "stdout"] - peaks[twists, "out"]) < 1 << 20, peaks


def test_streamed_entangle_peaks_alike_at_any_length(tmp_path):
    # the scan makes, scans and writes its curve a block at a time, so its peak
    # does not grow with points: a curve held whole until the CSV is written
    # adds 24 bytes a point, ~6.7 MB from 40,001 to 320,001 points
    peaks = {}
    out = str(tmp_path / "curve.csv")
    with contextlib.redirect_stdout(Discard()):
        assert cli.main(["entangle", "--beta-max", "1", "--out", out]) == 0  # imports and tables
        for beta_max in ("400", "3200"):
            argv = ["entangle", "--beta-max", beta_max, "--step", "0.01", "--out", out]
            peaks[beta_max] = peak_bytes(lambda: cli.main(argv))
            assert (tmp_path / "curve.csv").read_bytes().count(b"\n") == 1 + 100 * int(beta_max) + 1
    assert abs(peaks["3200"] - peaks["400"]) < 1 << 20, peaks


# twist x time offsets off the step grid on both axes, as in the benchmark's
# landscape sweep, so coordinates print at full 12-digit width
OFFSET_GRID = (
    "sweep", "--n", "7", "--d", "3", "--f-min=-0.4950057771004791",
    "--f-max=0.5049942228995209", "--f-step=0.04", "--beta-min=0.21504351385648202",
    "--beta-max=36.84504351385648", "--beta-step=0.37",
)


def test_sweep_offset_grid_matches_golden(capsys):
    # 26 twists x 100 times; the golden file was written with the coordinates
    # formatted per row as floats, and formatting each once must not move a byte
    code, out = run_cli(capsys, *OFFSET_GRID)
    assert code == 0
    golden = Path(__file__).parent / "data" / "sweep_offset_grid.csv"
    assert out.encode() == golden.read_bytes()


def float_column_sweep(n, d, f_min, f_max, f_step, beta_min, beta_max, beta_step):
    """The sweep CSV with every coordinate formatted per row, as plain float columns."""
    twists = [f_min + k * f_step for k in range(grid_count(f_max - f_min, f_step))]
    betas = beta_min + beta_step * np.arange(grid_count(beta_max - beta_min, beta_step))
    xis = [xi_profile(RingConfig(n, f=f), d, beta_min, beta_step, len(betas)) for f in twists]
    columns = (np.repeat(twists, len(betas)), np.tile(betas, len(twists)), np.ravel(xis))
    return csv_text(("f", "beta", "xi"), columns)


@pytest.mark.parametrize(
    "window, row",
    [
        # full 12-digit width on both axes, negative twists
        ((-0.4950057771004791, -0.2550057771004791, 0.04, 0.00581198686098686, 0.5, 0.01),
         "\n-0.4950057771,0.00581198686099,"),
        # exponent form on both axes: a twist within rounding of zero, tiny times
        ((-0.3, 0.3, 0.1, 1e-7, 3e-4, 1e-5), "\n5.55111512313e-17,1e-07,"),
        # large times in exponent form, rounded to 12 digits and at full width
        ((0.1, 0.3, 0.1, 1e15, 1.0000000001e15, 2.5e4), "\n0.1,1.00000000002e+15,"),
        ((-0.25, 0.25, 0.25, 1.23456789012e15, 1.2345678902e15, 1e4), "\n-0.25,1.23456789012e+15,"),
        # single-point axes: one time for every twist, one twist for every time, one point
        ((-0.3, 0.3, 0.1, 5.0, 5.0, 0.1), "\n-0.3,5,"),
        ((0.25, 0.25, 0.1, 0.0, 1.0, 0.1), "\n0.25,0.1,"),
        ((0.25, 0.25, 0.1, 5.0, 5.0, 0.1), "\n0.25,5,"),
    ],
    ids=["full-width", "tiny", "1e15", "12-digit-1e15", "one-time", "one-twist", "one-point"],
)
def test_sweep_matches_float_column_csv(capsys, window, row):
    f_min, f_max, f_step, beta_min, beta_max, beta_step = window
    code, out = run_cli(
        capsys, "sweep", "--n", "6", "--d", "2", f"--f-min={f_min!r}", f"--f-max={f_max!r}",
        f"--f-step={f_step!r}", f"--beta-min={beta_min!r}", f"--beta-max={beta_max!r}",
        f"--beta-step={beta_step!r}",
    )
    assert code == 0
    assert out == float_column_sweep(6, 2, *window)
    assert row in out


def test_sweep_twists_stop_at_f_max(capsys):
    # 0.1 / 0.06 rounds to 2 steps, which would put a twist at 0.12 > --f-max
    code, out = run_cli(
        capsys, "sweep", "--n", "5", "--d", "1", "--f-min", "0", "--f-max", "0.1",
        "--f-step", "0.06", "--beta-max", "0.1", "--beta-step", "0.1",
    )
    assert code == 0
    assert [row.split(",")[:2] for row in out.splitlines()[1:]] == [
        ["0", "0"], ["0", "0.1"], ["0.06", "0"], ["0.06", "0.1"],
    ]


def test_sweep_zero_twist_step_exits_2(capsys):
    assert run_cli(capsys, "sweep", "--n", "5", "--d", "2", "--f-step", "0")[0] == 2


def test_sweep_zero_time_step_exits_2(capsys):
    assert run_cli(capsys, "sweep", "--n", "5", "--d", "2", "--beta-step", "0")[0] == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--n", "5", "--d", "1", "--f-min", "0.5", "--f-max", "-0.5"], 2),
        (["sweep", "--n", "5", "--d", "1", "--beta-min", "10", "--beta-max", "5"], 2),
        (["sweep", "--n", "5", "--d", "1", "--beta-max", "inf"], 2),
        (["sweep", "--n", "5", "--d", "1", "--f-max", "inf"], 2),
        (["sweep", "--n", "5", "--d", "1", "--beta-max", "1e308"], 2),
        (["entangle", "--beta-max", "inf"], 2),
        (["blockage", "--nn", "1", "--beta-max", "inf"], 2),
        (["sweep", "--n", "5", "--d", "1", "--beta-min", "5", "--beta-max", "5"], 0),
        (["blockage", "--nn", "1", "--beta-max", "-1"], 2),
        (["blockage", "--nn", "1", "--samples", "-3"], 2),
        # rings whose arrays would need terabytes: numpy fails at once if a bound is missed
        (["amplitude", "--n", "1000000", "--d", "1", "--beta", "1", "--method", "oracle"], 2),
        (["amplitude", "--n", "1000000000000", "--d", "1", "--beta", "1"], 2),
        (["sweep", "--n", "1000000000000", "--d", "1", "--f-step", "0.5", "--beta-max", "1"], 2),
        (["entangle", "--n", "1000000000000", "--beta-max", "1"], 2),
        (["blockage", "--nn", "250000000000", "--samples", "1"], 2),
    ],
)
def test_window_bounds_contract(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
        assert not out.exists()
    else:
        assert len(read_rows(out)) == 21  # a one-point beta window, every twist


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--n", "5", "--d", "1", "--beta-step", "inf"], "--beta-step"),
        (["sweep", "--n", "5", "--d", "1", "--beta-step", "nan"], "--beta-step"),
        (["sweep", "--n", "5", "--d", "1", "--f-step", "inf"], "--f-step"),
        (["sweep", "--n", "5", "--d", "1", "--f-step", "-0.5"], "--f-step"),
        (["entangle", "--beta-max", "1", "--step", "inf"], "--step"),
        (["entangle", "--beta-max", "1", "--step", "nan"], "--step"),
        (["entangle", "--beta-max", "nan"], "--beta-max"),
    ],
)
def test_grid_steps_outside_zero_to_inf_name_their_flag(tmp_path, capsys, argv, flag):
    # an infinite step once made a one-point grid at beta inf * 0 = nan
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be positive")
    assert not out.exists()


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0])
def test_grid_count_refuses_steps_outside_zero_to_inf(step):
    with pytest.raises(ValueError, match="positive and finite"):
        grid_count(1.0, step)


@pytest.mark.parametrize(
    "flag, value", [("--samples", "-3"), ("--samples", "0"), ("--beta-max", "-1"), ("--beta-max", "nan")]
)
def test_blockage_errors_name_their_flag(capsys, monkeypatch, flag, value):
    def unreachable(*args):
        raise AssertionError("the sample generator was created")

    monkeypatch.setattr(cli.np.random, "default_rng", unreachable)
    assert cli.main(["blockage", "--nn", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")


def load_benchmark_spans():
    path = Path(__file__).parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    """Every module attribute the benchmark's traced mode patches exists."""
    for module, attr, *_ in load_benchmark_spans().MODULE_PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


def test_a_printed_csv_is_never_joined_whole(capsys, monkeypatch):
    # stdout streams the blocks `--out` writes; `cli.csv_text` stays a name the
    # benchmark's traced mode patches, and its CSV counters read 0 for every sink
    def joined(header, columns):
        raise AssertionError("a CSV was joined into one string")

    monkeypatch.setattr(cli, "csv_text", joined)
    monkeypatch.setattr(serialize, "csv_text", joined)
    for argv in (("sweep", "--n", "6", "--d", "2", "--f-step", "0.1", "--beta-max", "5"),
                 ("table1", "--twists=-0.25,0.25")):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.count("\n") == {"sweep": 1 + 11 * 101, "table1": 11}[argv[0]]


SWEEP_ARGV = ("sweep", "--n", "4", "--d", "2", "--f-step", "0.5", "--beta-max", "10")


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


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("table1", "--twists=-0.25,0.25"), "table1_quarter_twists.csv"),
        (OFFSET_GRID, "sweep_offset_grid.csv"),
    ],
    ids=["table1", "sweep"],
)
def test_streamed_out_is_the_printed_csv_and_replays(tmp_path, capsys, argv, golden):
    # `--out` and stdout stream the same blocks of the CSV
    code, printed = run_cli(capsys, *argv)
    assert code == 0
    out_csv = tmp_path / "out.csv"
    code, _ = run_cli(capsys, *argv, "--out", str(out_csv))
    assert code == 0
    written = out_csv.read_bytes()
    assert written == printed.encode() == (DATA / golden).read_bytes()
    out_csv.unlink()
    assert cli.main(["replay", "--manifest", str(manifest_path_for(out_csv))]) == 0
    assert out_csv.read_bytes() == written


def test_streamed_entangle_curve_is_its_csv_text_and_replays(tmp_path, capsys):
    # the blocks streamed to --out are those `entanglement_curve` lays end to end
    out_csv = tmp_path / "curve.csv"
    code, _ = run_cli(
        capsys, "entangle", "--n", "4", "--beta-max", "20", "--step", "0.01", "--out", str(out_csv),
    )
    assert code == 0
    betas = scan_times(20.0, 0.01)
    entropy, overlap = entangle.entanglement_curve(0.01, len(betas), n=4)
    text = csv_text(("beta", "entropy_ebits", "branch_overlap"), (betas, entropy, overlap))
    written = out_csv.read_bytes()
    assert written == text.encode() == (DATA / "entangle_n4_beta20.csv").read_bytes()
    out_csv.unlink()
    assert cli.main(["replay", "--manifest", str(manifest_path_for(out_csv))]) == 0
    assert out_csv.read_bytes() == written


def spoiled(columns, fault):
    """A chunk's columns as object arrays, spoiled in their last cell: one row short
    in the last column, or a text cell that holds a NUL."""
    columns = [np.array(c, dtype=object).reshape(-1) for c in columns]
    if fault == "shapes":
        columns[-1] = columns[-1][:-1]
    else:
        columns[-1][-1] = "x\0y"
    return columns


@pytest.mark.parametrize("fault", ["shapes", "nul"])
def test_a_refused_csv_leaves_out_unopened_and_exits_2(tmp_path, capsys, monkeypatch, fault):
    # the columns are checked before `--out` is opened or a byte is printed, even
    # where the fault lies in the last block of the CSV: the sweep's fourth of four
    def faulty(path, header, columns):
        serialize.write_csv(path, header, spoiled(columns, fault))

    monkeypatch.setattr(cli, "write_csv", faulty)
    out_csv = tmp_path / "curve.csv"
    out_csv.write_bytes(b"kept\n")
    code = cli.main([*SWEEP_ARGV, "--beta-step", "0.001", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert out_csv.read_bytes() == b"kept\n"
    assert not manifest_path_for(out_csv).exists()


@pytest.mark.parametrize("chunk", [0, 1], ids=["first-chunk", "later-chunk"])
@pytest.mark.parametrize("fault", ["shapes", "nul"])
def test_a_refused_chunk_of_the_streamed_curve_exits_2(tmp_path, capsys, monkeypatch, fault, chunk):
    # the curve is streamed: a chunk is checked when it comes, and the later ones
    # do not exist yet when `--out` is opened.  A refused first chunk leaves
    # `--out` unopened; a refused later one leaves the rows before it.  Either
    # way nothing is printed and no manifest is written.
    def faulty(path, header, chunks):
        serialize.write_csv_chunks(
            path, header, (spoiled(c, fault) if i == chunk else c for i, c in enumerate(chunks))
        )

    monkeypatch.setattr(cli, "write_csv_chunks", faulty)
    out_csv = tmp_path / "curve.csv"
    out_csv.write_bytes(b"kept\n")
    code = cli.main(["entangle", "--beta-max", "50", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not manifest_path_for(out_csv).exists()
    if chunk == 0:
        assert out_csv.read_bytes() == b"kept\n"
        return
    # the grid's 10,001 points go in blocks of 81 giant rows of 101 points
    betas = scan_times(50.0, 0.005)
    entropy, overlap = entangle.entanglement_curve(0.005, len(betas))
    lines = csv_text(("beta", "entropy_ebits", "branch_overlap"), (betas, entropy, overlap))
    assert out_csv.read_text() == "".join(lines.splitlines(keepends=True)[: 1 + 81 * 101])


def test_a_fault_after_the_streamed_curve_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    # the manifest is written once the whole command has run, not with the CSV:
    # a fault in the polish, after the curve's last block, exits 2 without one
    def faulty(*args, **kwargs):
        raise ValueError("polish refused")

    monkeypatch.setattr(entangle, "polish", faulty)
    out_csv = tmp_path / "curve.csv"
    code = cli.main(["entangle", "--beta-max", "20", "--step", "0.01", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert "polish refused" in captured.err and captured.out == ""
    assert out_csv.read_bytes() == (DATA / "entangle_n4_beta20.csv").read_bytes()
    assert not manifest_path_for(out_csv).exists()


@pytest.mark.parametrize(
    "argv",
    [
        SWEEP_ARGV,
        ("entangle", "--beta-max", "2"),
        ("amplitude", "--n", "5", "--d", "1", "--beta", "3"),
    ],
    ids=["sweep", "entangle", "amplitude"],
)
def test_an_out_that_names_a_directory_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "results"
    target.mkdir()
    code = cli.main([*argv, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not manifest_path_for(target).exists()
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "manifest",
    [
        {"command": "sweep"},
        [SWEEP_ARGV],
        {"argv": [1, 2]},
        {"argv": []},
        {"argv": "sweep --n 4 --d 2"},
        {"argv": ["replay", "--manifest", "SELF"]},
        "not json",
    ],
    ids=["no-argv", "json-list", "argv-of-ints", "empty-argv", "argv-string", "replays-itself",
         "not-json"],
)
def test_replay_of_a_malformed_manifest_exits_2(tmp_path, capsys, manifest):
    path = tmp_path / "run.manifest.json"
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    path.write_text(text.replace("SELF", str(path)), encoding="utf-8")
    code = cli.main(["replay", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "fields",
    [{"duration_seconds": "corrupt"}, {"parameters": None}],
    ids=["corrupt-duration", "no-parameters"],
)
def test_replay_reads_only_the_argv_and_version(tmp_path, capsys, fields):
    out_csv = tmp_path / "sweep.csv"
    assert run_cli(capsys, *SWEEP_ARGV, "--out", str(out_csv))[0] == 0
    original = out_csv.read_bytes()
    path = manifest_path_for(out_csv)
    doc = {**json.loads(path.read_text(encoding="utf-8")), **fields}
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}), encoding="utf-8")
    out_csv.unlink()
    assert run_cli(capsys, "replay", "--manifest", str(path))[0] == 0
    assert out_csv.read_bytes() == original


def run_child(*argv, timeout=None):
    """`python ARGV` in a child that imports spinring from where this process did."""
    package_root = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_console_script_runs():
    proc = run_child(
        "-m", "spinring.cli", "amplitude", "--n", "4", "--d", "2", "--f", "0",
        "--beta", "3.141592653589793",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["xi"] == pytest.approx(1.0, abs=1e-12)


def test_every_amplitude_route_runs_without_scipy():
    # the Bessel route is an independent check only while it computes its own
    # ladder: no scipy.special.jv behind it, and no scipy in its memory figure
    program = (
        "import sys\n"
        "import spinring.cli\n"
        "argv = ['amplitude', '--n', '7', '--d', '3', '--f=0.25', '--beta', '3500.4', '--method', 'all']\n"
        "assert spinring.cli.main(argv) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    proc = run_child("-c", program)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_csv_cell_layout_loads_only_with_a_csv():
    # compiling it and building its tables would cost every command start-up time and memory
    program = (
        "import sys\n"
        "import spinring.cli\n"
        "loaded = []\n"
        "for argv in (['amplitude', '--n', '5', '--d', '1', '--beta', '3'], ['sweep', '--n', '5', '--d', '1']):\n"
        "    assert spinring.cli.main(argv) == 0\n"
        "    loaded.append('spinring._cells' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = run_child("-c", program)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, True]"


@pytest.mark.parametrize(
    "argv",
    [
        ["entangle", "--n", "4", "--beta-max", "1e9", "--step", "1e8"],
        ["multiparty", "--n", "5", "--sites", "1,2", "--twists=0.25",
         "--beta-max", "1e13", "--beta-step", "1e9"],
    ],
    ids=["entangle", "multiparty"],
)
def test_refinement_below_the_float_spacing_ends(argv):
    # the refinement tolerance (1e-7, 1e-4) is below the spacing of floats at
    # the window's end; run in a child so that a search that never stops
    # fails at the timeout instead of stalling the suite
    proc = run_child("-m", "spinring.cli", *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ["multiparty", "--n", "5", "--sites", "1,3", "--beta-max", "1e300", "--beta-step", "1e299"],
        ["multiparty", "--n", "7", "--sites", "1,3,6", "--beta-max", "1.7e308",
         "--beta-step", "1e307"],
        ["entangle", "--n", "5", "--beta-max", "1.7e308", "--step", "1e307"],
    ],
    ids=["multiparty-1e300", "multiparty-max", "entangle-max"],
)
def test_windows_near_the_largest_float_warn_nothing(capsys, argv):
    # past beta ~ 1e154 the twist terms of the polish's derivatives overflow;
    # the polish takes no such step, and numpy's warnings stay quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv[-1] == "1e299":
        (pair,) = json.loads(captured.out)["pairs"]
        assert (pair["f"], pair["beta"], pair["xi"]) == (0.465, 1e299, 0.983058515525)


# what a numeric flag may be given in place of a valid value
SPOILED = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "-0", "1e400", "1e-300", "x", "", "1,2", "0x10"]
)


@st.composite
def fuzzed_argv(draw):
    """argv of one command on a grid of at most 10^4 points and one twist.

    Windows reach 1e15, so most grids are sparse, and up to two flags are spoiled.
    """
    command = draw(
        st.sampled_from(["entangle", "multiparty", "sweep", "amplitude", "blockage", "table1"])
    )
    n = draw(st.integers(3, 12))
    span = 10.0 ** draw(st.floats(-3.0, 15.0))
    step = span / draw(st.integers(1, 10_000))
    twist = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.25, 0.5])))
    if command == "entangle":
        flags = {"--n": n, "--beta-max": span, "--step": step,
                 "--start-site": draw(st.integers(1, n))}
    elif command == "multiparty":
        sites = draw(st.lists(st.integers(1, n), min_size=2, max_size=3, unique=True))
        flags = {"--n": n, "--sites": ",".join(map(str, sites)), "--twists": twist,
                 "--beta-max": span, "--beta-step": step}
    elif command == "sweep":
        start = draw(st.sampled_from([0.0, span]))
        flags = {"--n": n, "--d": draw(st.integers(-n, 2 * n)), "--f-min": twist, "--f-max": twist,
                 "--beta-min": start, "--beta-max": start + span, "--beta-step": step}
    elif command == "table1":
        flags = {"--beta-max": span, "--beta-step": step, "--twists": twist}
    elif command == "amplitude":
        flags = {"--n": n, "--d": draw(st.integers(-n, 2 * n)), "--f": twist, "--beta": span,
                 "--method": draw(st.sampled_from(["spectral", "bessel", "oracle", "all"]))}
    else:
        rings = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
        flags = {"--nn": ",".join(map(str, rings)), "--samples": draw(st.integers(1, 50)),
                 "--beta-max": span}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        flags[flag] = draw(SPOILED)
    return [command, *(f"{flag}={value}" for flag, value in flags.items())]


def run_quietly(argv):
    """(exit code, stderr) of an in-process CLI run with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_commands_keep_the_exit_code_contract(argv):
    writes = argv[0] in ("sweep", "table1", "entangle", "multiparty")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results"
        code, err = run_quietly([*argv, f"--out={out}"] if writes else argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err, argv
        if writes and code in (cli.EXIT_OK, cli.EXIT_PHYSICS):
            # a run that writes results (table1 does so when its physics check
            # fails) leaves a file that replay reproduces byte for byte
            written = out.read_bytes()
            out.unlink()
            assert run_quietly(["replay", "--manifest", str(manifest_path_for(out))])[0] == code, argv
            assert out.read_bytes() == written, argv


# JSON text for hand-edited documents: NaN and huge-number literals, nesting,
# and objects that may repeat a key.  No drawn string holds "-", so no drawn
# argument is a flag, and none can send output anywhere.
JSON_LEAVES = st.one_of(
    st.sampled_from(["null", "true", "false", "NaN", "Infinity", "-Infinity", "1e400", "-1e-400",
                     "1" + "0" * 400, "1" * 5000, "0", "2.5"]),
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.text(alphabet="abcxyz019 .,:[]{}\"\\", max_size=6).map(json.dumps),
)


def json_object(members):
    """An object's text from its (key, value text) members, repeated keys kept."""
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in members) + "}"


def json_documents(keys):
    key = st.one_of(keys, st.text(alphabet="abxyz_", max_size=3))
    return st.recursive(
        JSON_LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda items: "[" + ",".join(items) + "]"),
            st.lists(st.tuples(key, inner), max_size=4).map(json_object),
        ),
        max_leaves=8,
    )


MANIFEST_KEYS = st.sampled_from(["argv", "command", "parameters", "artifact_version", "results_path"])
# an argv replay may run: cheap commands, a replay of a replay and an empty one
ARGVS = st.sampled_from([
    ["amplitude", "--n", "5", "--d", "1", "--beta", "1"],
    ["sweep", "--n", "4", "--d", "2", "--beta-max", "1"],
    ["replay", "--manifest", "run.manifest.json"],
    ["--help"],
    [],
]).map(json.dumps)


@st.composite
def manifest_texts(draw):
    """A manifest as text: drawn JSON, or an object whose argv is drawn JSON or a
    runnable argv, among other drawn members whose keys may repeat."""
    junk = json_documents(MANIFEST_KEYS)
    if draw(st.booleans()):
        return draw(junk)
    members = draw(st.lists(st.tuples(MANIFEST_KEYS, junk), max_size=3))
    members.insert(draw(st.integers(0, len(members))), ("argv", draw(st.one_of(ARGVS, junk))))
    return json_object(members)


@settings(max_examples=60, deadline=None)
@given(text=manifest_texts())
def test_replay_of_drawn_manifests_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.manifest.json"
        path.write_text(text, encoding="utf-8")
        code, err = run_quietly(["replay", "--manifest", str(path)])
    assert code in (0, 2, 3, 4), (text, err)


@pytest.mark.parametrize("command", ["replay --manifest", "table1 --config"])
def test_json_nested_past_the_decoder_depth_exits_2(tmp_path, command):
    # json.loads raises RecursionError, not ValueError, on such a document
    path = tmp_path / "deep.json"
    path.write_text('{"argv": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    code, err = run_quietly([*command.split(), str(path)])
    assert code == 2 and err.startswith("error: ") and "nested too deeply" in err


SPEC_KEYS = st.sampled_from([f.name for f in dataclasses.fields(SearchSpec)])
SPEC_TEXTS = st.one_of(
    json_documents(SPEC_KEYS),
    st.lists(st.tuples(SPEC_KEYS, json_documents(SPEC_KEYS)), max_size=4).map(json_object),
)


@settings(max_examples=40, deadline=None)
@given(text=SPEC_TEXTS)
def test_table1_config_of_drawn_documents_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(text, encoding="utf-8")
        # the window and grid flags override the document's, so a valid one stays small
        argv = ["table1", "--config", str(path), "--beta-max=20", "--beta-step=0.5", "--twists=0.25"]
        code, err = run_quietly(argv)
    assert code in (0, 2, 3, 4), (text, err)
