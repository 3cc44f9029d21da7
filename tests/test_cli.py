"""End-to-end command line behavior: artifacts, overrides, exit codes."""

from __future__ import annotations

import json
import math
import pathlib
import warnings

import pytest

from shortfall_hedge.cli import (_GRID_MAX_POINTS, main, parse_config,
                                 resolve_grid)

SYMMETRIC = {
    "market": {"s0": [100.0, 100.0], "alpha": [0.05, 0.05],
               "sigma": [0.25, 0.25], "rho": 0.3, "r": 0.02, "T": 1.0},
    "payoff": {"kind": "Digital", "strike": 10.0},
    "loss": {"kind": "linear"},
}

DESK = {
    "market": {"s0": [100.0, 95.0], "alpha": [0.08, 0.05],
               "sigma": [0.2, 0.3], "rho": -0.5, "r": 0.02, "T": 1.0},
    "payoff": {"kind": "Spread", "strike": 5.0},
    "loss": {"kind": "power", "p": 2.0},
}


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _data_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_price_symmetric_digital_stdout(tmp_path, capsys):
    rc = main(["price", "--config", _write(tmp_path, SYMMETRIC)])
    out = capsys.readouterr().out
    assert rc == 0
    header, rows = _data_rows(out)
    assert header == ["key", "value"]
    assert rows[0][0] == "price"
    assert float(rows[0][1]) == pytest.approx(math.exp(-0.02) * 5.0, rel=1e-11)
    # artifacts embed the resolved config and the seed
    assert "# config: " in out and "# seed: " in out


def test_curve_csv_schema_and_monotonicity(tmp_path, capsys):
    rc = main(["curve", "phi1", "--config", _write(tmp_path, SYMMETRIC),
               "--grid", "0:p(H):21"])
    assert rc == 0
    header, rows = _data_rows(capsys.readouterr().out)
    assert header == ["input", "value", "c", "method", "err_estimate"]
    assert len(rows) == 21
    values = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0
    assert {r[3] for r in rows} == {"quadrature"}


def test_symbolic_expressions(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC)
    assert main(["phi1", "--config", cfg, "--x", "0.5*price"]) == 0
    half = float(_data_rows(capsys.readouterr().out)[1][0][0])
    assert half == pytest.approx(0.5 * math.exp(-0.02) * 5.0, rel=1e-11)
    assert main(["phi2", "--config", cfg, "--v", "E[H]/4"]) == 0
    v = float(_data_rows(capsys.readouterr().out)[1][0][0])
    assert v == pytest.approx(1.25, rel=1e-11)
    assert main(["phi1", "--config", cfg, "--x", "2*(p(H)-0.5)"]) == 0
    capsys.readouterr()
    assert main(["phi1", "--config", cfg, "--x", "__import__"]) == 2
    assert "expression" in capsys.readouterr().err
    # only + - * / and parentheses: a power is refused before it is computed
    for expr in ("2**10", "1e5**1e5", "9**9**9", "1/0", "1e308*10",
                 "-" * 5000 + "1"):
        assert main(["phi1", "--config", cfg, f"--x={expr}"]) == 2, expr
        assert "expression" in capsys.readouterr().err


def test_json_artifact_roundtrips_config(tmp_path):
    out_file = tmp_path / "run.json"
    rc = main(["phi2", "--config", _write(tmp_path, DESK), "--v", "1.0",
               "--format", "json", "--out", str(out_file), "--seed", "77"])
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["command"] == "phi2" and doc["seed"] == 77
    cfg = parse_config(doc["config"])
    assert cfg.mc.seed == 77
    assert parse_config(cfg.to_dict()) == cfg
    assert doc["results"]["value"] > 0.0


def test_validation_lists_every_field(tmp_path, capsys):
    bad = {
        "market": {"s0": [100.0, -1.0], "alpha": [0.08, 0.05],
                   "sigma": [0.2, 0.3], "rho": 2.0, "r": 0.02, "T": 1.0,
                   "extra": 1},
        "payoff": {"kind": "Digital", "strike": -3.0},
        "loss": {"kind": "sublinear"},
        "junk": {},
    }
    rc = main(["price", "--config", _write(tmp_path, bad)])
    err = capsys.readouterr().err
    assert rc == 2
    for needle in ("config.junk", "market.extra", "market.s0[1]",
                   "market.rho", "payoff.strike", "loss.kind"):
        assert needle in err, needle


@pytest.mark.parametrize("literal", ["1e400", "NaN", "-Infinity"])
@pytest.mark.parametrize("section, key", [("mc", "n_paths"), ("mc", "seed")])
def test_non_finite_numbers_rejected(tmp_path, capsys, section, key, literal):
    # json reads 1e400, NaN and Infinity as floats that int() cannot take:
    # a listed violation each
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SYMMETRIC, **{section: {key: "@"}}))
                    .replace('"@"', literal))
    rc = main(["phi1", "--config", str(path), "--x", "0.5*price"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err and all(line.startswith("error: ") for line in err)
    assert any(f"{section}.{key}: must be finite" in line for line in err)


@pytest.mark.parametrize("section, key", [("mc", "n_paths"), ("mc", "seed")])
def test_integer_fields_take_whole_numbers(tmp_path, capsys, section, key):
    # a fractional value is refused, not truncated by int()
    doc = dict(SYMMETRIC, **{section: {key: 20000.5}})
    assert main(["price", "--config", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {section}.{key}: must be an integer, got 20000.5"]
    # an integral float such as 2e4 is a whole number
    got = getattr(getattr(parse_config(dict(SYMMETRIC, **{section: {key: 2e4}})),
                          section), key)
    assert got == 20000 and type(got) is int


def test_negative_seed_rejected(tmp_path, capsys):
    # numpy takes no negative seed: a listed violation, not numpy's ValueError
    doc = dict(SYMMETRIC, mc={"n_paths": 20000, "seed": -1})
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--x", "0.5*price"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: mc.seed: must be >= 0, got -1"]
    assert main(["verify", "--config", _write(tmp_path, SYMMETRIC, "ok.json"),
                 "--x", "0.5*price", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: seed: must be >= 0, got -1"]


def test_huge_path_count_rejected(tmp_path, capsys):
    # 1e30 paths reached numpy's raw "Maximum allowed dimension exceeded",
    # and about 1e10 would try to allocate hundreds of GB first
    doc = dict(SYMMETRIC, mc={"n_paths": 1e30, "seed": 1})
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--x", "0.5*price"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: mc.n_paths: must be <= 100000000, got "
        f"{int(1e30)}"]


def test_path_count_below_the_floor_rejected(tmp_path, capsys):
    # 2 paths ran with numpy's "Degrees of freedom <= 0" warnings and a nan
    # mc_risk_se; the Monte Carlo estimates need at least 1e4
    doc = dict(SYMMETRIC, mc={"n_paths": 2, "seed": 1})
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--x", "0.5*price"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: mc.n_paths: must be >= 10000, got 2"]


def test_every_violation_listed_once(tmp_path, capsys):
    # one wrong value per config field: each is named once, with no doubled
    # section prefix and no message about a value the file did not hold
    bad = {
        "market": {"s0": [100.0, -1.0], "alpha": [0.08, "x"],
                   "sigma": [0.2, 0.0], "rho": 2.0, "r": "x", "T": -1.0,
                   "extra": 1},
        "payoff": {"kind": "Custom", "strike": -3.0},
        "loss": {"kind": "quadratic", "p": "two"},
        # the solver section and the last key of mc are removed options
        "solver": {"abs_tol_target": 0.0, "bisection_iters": 200},
        "mc": {"n_paths": 1, "seed": -1, "antithetic": True},
        "output": {"path": 3, "format": "xml"},
        "junk": {},
    }
    assert main(["price", "--config", _write(tmp_path, bad)]) == 2
    assert set(capsys.readouterr().err.splitlines()) == {f"error: {v}" for v in (
        "config.junk: unknown key",
        "config.solver: unknown key",
        "market.extra: unknown key",
        "market.s0[1]: must be a positive finite real, got -1.0",
        "market.alpha: must be a list of two numbers, got [0.08, 'x']",
        "market.sigma[1]: must be a positive finite real, got 0.0",
        "market.rho: must satisfy |rho| <= 0.9999 (Q positive definite), "
        "got 2.0",
        "market.r: must be a number, got 'x'",
        "market.T: must be a positive finite real, got -1.0",
        "payoff.kind: must be one of Digital, QuantoDomestic, QuantoForeign, "
        "Outperformance, Spread, got 'Custom'",
        "payoff.strike: must be a positive real, got -3.0",
        "loss.kind: must be one of linear, power, got 'quadratic'",
        "loss.p: must be a number, got 'two'",
        "mc.n_paths: must be >= 10000, got 1",
        "mc.seed: must be >= 0, got -1",
        "mc.antithetic: unknown key",
        "output.path: must be a string or null, got 3",
        "output.format: must be one of csv, json, got 'xml'")}


def test_readme_config_example_parses():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(example))
    assert cfg.payoff.kind == "Spread" and cfg.mc.n_paths == 200_000


def test_config_echo_format():
    # the format of the '# config:' line and of the JSON "config" object
    assert json.dumps(parse_config(DESK).to_dict()) == (
        '{"market": {"s0": [100.0, 95.0], "alpha": [0.08, 0.05], '
        '"sigma": [0.2, 0.3], "rho": -0.5, "r": 0.02, "T": 1.0}, '
        '"payoff": {"kind": "Spread", "strike": 5.0}, '
        '"loss": {"kind": "power", "p": 2.0}, '
        '"mc": {"n_paths": 200000, "seed": 1}, '
        '"output": {"path": null, "format": "csv"}}')


def test_missing_sections_rejected(tmp_path, capsys):
    rc = main(["price", "--config", _write(tmp_path, {"market": SYMMETRIC["market"]})])
    err = capsys.readouterr().err
    assert rc == 2
    assert "payoff: missing required section" in err
    assert "loss: missing required section" in err


def test_assumption_violation_exit_code_names_condition(tmp_path, capsys):
    cfg = {
        "market": {"s0": [100.0, 95.0], "alpha": [0.08, 0.05],
                   "sigma": [0.2, 0.3], "rho": 0.6, "r": 0.02, "T": 1.0},
        "payoff": {"kind": "Outperformance", "strike": 100.0},
        "loss": {"kind": "power", "p": 2.0},
    }
    rc = main(["psi", "--config", _write(tmp_path, cfg), "--c", "1.0"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "A1 > 0 and A2 > 0" in err


def test_out_of_range_exit_code(tmp_path, capsys):
    rc = main(["phi1", "--config", _write(tmp_path, SYMMETRIC), "--x", "0-1"])
    assert rc == 4
    assert "nonnegative" in capsys.readouterr().err


def test_infeasible_step_exit_code(tmp_path, capsys):
    degenerate = dict(SYMMETRIC, market=dict(SYMMETRIC["market"],
                                             alpha=[0.02, 0.02]))
    rc = main(["phi1", "--config", _write(tmp_path, degenerate),
               "--x", "0.5*p(H)"])
    assert rc == 4
    assert "jump" in capsys.readouterr().err


def test_heavy_tail_exit_code(tmp_path, capsys):
    cfg = {
        "market": {"s0": [100.0, 95.0], "alpha": [0.08, 0.05],
                   "sigma": [6.0, 0.3], "rho": -0.5, "r": 0.02, "T": 1.0},
        "payoff": {"kind": "QuantoDomestic", "strike": 100.0},
        "loss": {"kind": "linear"},
    }
    rc = main(["price", "--config", _write(tmp_path, cfg)])
    assert rc == 5
    assert "tail" in capsys.readouterr().err


def test_fallback_weight_past_the_float_range(tmp_path, capsys, recwarn):
    # Outperformance/power at alpha1 = 5.4 fails its sign condition; the
    # phi2 root on the Monte Carlo route lies past c = 1e154, where c^2
    # overflows a float: the heavy-tail exit code and one error line, no
    # traceback or warning
    warnings.simplefilter("always")
    cfg = dict(DESK, market=dict(DESK["market"], alpha=[5.4, 0.0], rho=0.0),
               payoff={"kind": "Outperformance", "strike": 100.0})
    rc = main(["phi2", "--config", _write(tmp_path, cfg), "--v",
               "0.5*E[l(H)]", "--format", "json"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: Monte Carlo Psi1 at c = ")
    assert err.endswith(": a power-loss weight overflows\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("kind, strike", [
    ("Digital", 10.0), ("QuantoDomestic", 100.0), ("QuantoForeign", 9500.0),
    ("Outperformance", 100.0), ("Spread", 5.0)])
def test_overflowing_power_loss_exit_code(tmp_path, capsys, recwarn, kind,
                                          strike):
    # at p = 400 the loss terms overflow: a typed refusal, not an unbounded
    # refinement of non-finite panels or a raw OverflowError, and no numpy
    # RuntimeWarning on the way (capsys does not see warnings; recwarn does)
    warnings.simplefilter("always")
    cfg = dict(DESK, payoff={"kind": kind, "strike": strike},
               loss={"kind": "power", "p": 400.0})
    rc = main(["phi1", "--config", _write(tmp_path, cfg), "--x", "0.5*price"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 5
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "overflows" in err[0]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflow_message_names_p_and_c_exactly(tmp_path, capsys):
    # p = 1.0000001 overflows; the message prints the p the engine was
    # given, not a rounded p = 1 that it would refuse
    cfg = dict(DESK, payoff={"kind": "QuantoDomestic", "strike": 100.0},
               loss={"kind": "power", "p": 1.0000001})
    rc = main(["phi1", "--config", _write(tmp_path, cfg), "--x", "0.5*price"])
    err = capsys.readouterr().err
    assert rc == 5
    assert "at p = 1.0000001, c = 1.0:" in err


def test_psi_command_csv(tmp_path, capsys):
    rc = main(["psi", "--config", _write(tmp_path, DESK), "--c", "25"])
    assert rc == 0
    header, rows = _data_rows(capsys.readouterr().out)
    assert header == ["c", "psi1", "psi2", "method", "err_estimate"]
    assert float(rows[0][0]) == 25.0
    assert float(rows[0][1]) > 0.0 and float(rows[0][2]) > 0.0


def test_verify_command(tmp_path, capsys):
    small = dict(SYMMETRIC, mc={"n_paths": 60_000, "seed": 4})
    rc = main(["verify", "--config", _write(tmp_path, small),
               "--x", "0.5*price"])
    assert rc == 0
    _, rows = _data_rows(capsys.readouterr().out)
    table = {r[0]: r[1] for r in rows}
    assert table["ok"] == "true"
    assert table["risk_ok"] == "true" and table["cost_ok"] == "true"


def test_phi1_and_verify_check_the_same_fallback_solve(tmp_path, capsys):
    # Outperformance/power at rho = 0.6 fails its sign condition and solves
    # by Monte Carlo: phi1 prints the solve that verify checks, not one on
    # the mc section's sample
    doc = dict(DESK, market=dict(DESK["market"], rho=0.6),
               payoff={"kind": "Outperformance", "strike": 100.0},
               mc={"n_paths": 20000, "seed": 1})
    cfg = _write(tmp_path, doc)
    args = ["--config", cfg, "--x", "0.5*p(H)", "--format", "json"]
    assert main(["phi1"] + args) == 0
    phi = json.loads(capsys.readouterr().out)["results"]
    assert main(["verify"] + args) == 0
    rep = json.loads(capsys.readouterr().out)["results"]
    assert phi["method"] == "monte-carlo"
    assert (phi["value"], phi["c"]) == (rep["engine_risk"], rep["c"])


def test_curve_grid_validation(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC)
    assert main(["curve", "phi1", "--config", cfg, "--grid", "0:1"]) == 2
    assert main(["curve", "phi1", "--config", cfg, "--grid", "0:1:0"]) == 2
    assert main(["curve", "phi1", "--config", cfg, "--grid", "0:1:x"]) == 2
    capsys.readouterr()


def test_curve_grid_size_cap(tmp_path, capsys):
    # a count above the cap exits 2 with one error line, before any solve
    cfg = _write(tmp_path, SYMMETRIC)
    for count in (_GRID_MAX_POINTS + 1, 1_000_000_000):
        assert main(["curve", "phi1", "--config", cfg, "--grid",
                     f"0:1:{count}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(_GRID_MAX_POINTS) in err[0]
    top = resolve_grid(f"0:1:{_GRID_MAX_POINTS}", None)
    assert len(top) == _GRID_MAX_POINTS and top[-1] == 1.0


def test_config_file_problems(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["price", "--config", missing]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["price", "--config", str(bad_json)]) == 2
    capsys.readouterr()
    # too deeply nested for the decoder, and not UTF-8: listed, no traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"market": "\xe9"}')
    for path in (deep, latin):
        assert main(["price", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")


def test_unwritable_out_path(tmp_path, capsys):
    # the artifact's file cannot be created: exit 2 naming the path
    target = str(tmp_path / "missing" / "a.csv")
    assert main(["price", "--config", _write(tmp_path, SYMMETRIC),
                 "--out", target]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: output.path: cannot write {target!r}: ")


def test_custom_kind_rejected_in_config(tmp_path, capsys):
    doc = dict(SYMMETRIC, payoff={"kind": "Custom", "strike": 1.0})
    assert main(["price", "--config", _write(tmp_path, doc)]) == 2
    assert "Custom" in capsys.readouterr().err


def test_output_section_and_format_override(tmp_path):
    out_csv = tmp_path / "a.csv"
    doc = dict(DESK, output={"path": str(out_csv), "format": "csv"})
    assert main(["price", "--config", _write(tmp_path, doc)]) == 0
    assert out_csv.read_text().startswith("# command: price")
    out_json = tmp_path / "b.json"
    assert main(["price", "--config", _write(tmp_path, doc, "cfg2.json"),
                 "--format", "json", "--out", str(out_json)]) == 0
    assert json.loads(out_json.read_text())["command"] == "price"
