"""Command line front end.

    shortfall-hedge <command> --config cfg.json [options]

Commands
    price   arbitrage-free price p(H)
    psi     (Psi1, Psi2) at one region parameter c     (--c)
    phi1    minimal shortfall risk at capital x        (--x)
    phi2    cheapest capital for risk bound v          (--v)
    curve   phi1 or phi2 over a grid                   (curve phi1 --grid a:b:n)
    verify  engine risk vs direct simulation           (--x)

The config file is strict JSON: sections market, payoff, loss are
required, solver, mc, output optional, and unknown keys anywhere are
rejected.  Numeric options accept arithmetic over the symbols p(H),
price, E[H] and E[l(H)], e.g. --x 0.5*price or --grid 0:p(H):21.
Every artifact embeds the resolved config and seed; CSV carries them as
'#' comment lines, JSON as a "config" object that parses back to the
identical run configuration.  Floats print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (AssumptionViolatedError, HeavyTailError,
                     InfeasibleInversionError, NanGuardError, OutOfRangeError,
                     PayoffContractError, ShortfallHedgeError,
                     UnsupportedClosedFormError, ValidationError)
from .market import MarketParams
from .mc import McConfig, verify_risk
from .payoffs import CUSTOM, KINDS, Payoff
from .psi import LINEAR, POWER, LossSpec, psi_linear, psi_power
from .solver import (SolveConfig, _edges, _one, _phi1_impl, _phi2_impl,
                     curve, price)

_FORMATS = ("csv", "json")
_DEFAULT_MC = McConfig(n_paths=200_000, seed=1, antithetic=True)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (config file plus CLI overrides)."""

    market: MarketParams
    payoff: Payoff
    loss: LossSpec
    solver: SolveConfig
    mc: McConfig
    out_path: Optional[str]
    out_format: str

    def to_dict(self) -> dict:
        loss: dict = {"kind": self.loss.kind}
        if self.loss.kind == POWER:
            loss["p"] = self.loss.p
        return {
            "market": {
                "s0": list(self.market.s0),
                "alpha": list(self.market.alpha),
                "sigma": list(self.market.sigma),
                "rho": self.market.rho,
                "r": self.market.r,
                "T": self.market.T,
            },
            "payoff": {"kind": self.payoff.kind, "strike": self.payoff.strike},
            "loss": loss,
            "solver": {
                "abs_tol_target": self.solver.abs_tol_target,
                "max_bracket_expansions": self.solver.max_bracket_expansions,
                "bisection_iters": self.solver.bisection_iters,
            },
            "mc": {
                "n_paths": self.mc.n_paths,
                "seed": self.mc.seed,
                "antithetic": self.mc.antithetic,
            },
            "output": {"path": self.out_path, "format": self.out_format},
        }


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _reject_unknown(section: dict, name: str, allowed: set, bad: list):
    for key in section:
        if key not in allowed:
            bad.append(f"{name}.{key}: unknown key")


def _pair(section: dict, name: str, key: str, bad: list):
    v = section.get(key)
    if not (isinstance(v, list) and len(v) == 2 and all(_is_num(x) for x in v)):
        bad.append(f"{name}.{key}: must be a list of two numbers, got {v!r}")
        return (1.0, 1.0)
    return (float(v[0]), float(v[1]))


def _num(section: dict, name: str, key: str, bad: list, default=None):
    if key not in section:
        if default is None:
            bad.append(f"{name}.{key}: missing required key")
            return 1.0
        return default
    v = section[key]
    if not _is_num(v):
        bad.append(f"{name}.{key}: must be a number, got {v!r}")
        return 1.0
    if not math.isfinite(v):
        bad.append(f"{name}.{key}: must be finite, got {v!r}")
        return 1.0
    return float(v)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, strictly.

    Collects every violation (unknown keys, missing sections, type and
    invariant failures) into one ValidationError.
    """
    bad: list = []
    if not isinstance(data, dict):
        raise ValidationError(["config: top level must be a JSON object"])
    _reject_unknown(data, "config",
                    {"market", "payoff", "loss", "solver", "mc", "output"}, bad)
    sections = {}
    for name in ("market", "payoff", "loss", "solver", "mc", "output"):
        sec = data.get(name)
        if sec is None:
            if name in ("market", "payoff", "loss"):
                bad.append(f"{name}: missing required section")
            sections[name] = {}
        elif not isinstance(sec, dict):
            bad.append(f"{name}: must be a JSON object")
            sections[name] = {}
        else:
            sections[name] = sec

    m = sections["market"]
    _reject_unknown(m, "market", {"s0", "alpha", "sigma", "rho", "r", "T"}, bad)
    market_args = dict(
        s0=_pair(m, "market", "s0", bad),
        alpha=_pair(m, "market", "alpha", bad),
        sigma=_pair(m, "market", "sigma", bad),
        rho=_num(m, "market", "rho", bad),
        r=_num(m, "market", "r", bad),
        T=_num(m, "market", "T", bad),
    )

    po = sections["payoff"]
    _reject_unknown(po, "payoff", {"kind", "strike"}, bad)
    po_kind = po.get("kind")
    if po_kind == CUSTOM:
        bad.append("payoff.kind: Custom payoffs need a Python callable and "
                   "cannot be built from a config file")
    elif po_kind not in KINDS:
        named = ", ".join(k for k in KINDS if k != CUSTOM)
        bad.append(f"payoff.kind: must be one of {named}, got {po_kind!r}")
    po_strike = _num(po, "payoff", "strike", bad)

    lo = sections["loss"]
    _reject_unknown(lo, "loss", {"kind", "p"}, bad)
    lo_kind = lo.get("kind")
    if lo_kind not in (LINEAR, POWER):
        bad.append(f"loss.kind: must be '{LINEAR}' or '{POWER}', got {lo_kind!r}")
    lo_p = None
    if lo_kind == POWER:
        lo_p = _num(lo, "loss", "p", bad)
    elif "p" in lo:
        bad.append("loss.p: only valid for power loss")

    so = sections["solver"]
    _reject_unknown(so, "solver",
                    {"abs_tol_target", "max_bracket_expansions",
                     "bisection_iters"}, bad)
    dflt = SolveConfig()
    solver_args = dict(
        abs_tol_target=_num(so, "solver", "abs_tol_target", bad,
                            dflt.abs_tol_target),
        max_bracket_expansions=int(_num(so, "solver", "max_bracket_expansions",
                                        bad, dflt.max_bracket_expansions)),
        bisection_iters=int(_num(so, "solver", "bisection_iters", bad,
                                 dflt.bisection_iters)),
    )

    mcd = sections["mc"]
    _reject_unknown(mcd, "mc", {"n_paths", "seed", "antithetic"}, bad)
    anti = mcd.get("antithetic", _DEFAULT_MC.antithetic)
    if not isinstance(anti, bool):
        bad.append(f"mc.antithetic: must be a boolean, got {anti!r}")
        anti = True
    mc_args = dict(
        n_paths=int(_num(mcd, "mc", "n_paths", bad, _DEFAULT_MC.n_paths)),
        seed=int(_num(mcd, "mc", "seed", bad, _DEFAULT_MC.seed)),
        antithetic=anti,
    )

    out = sections["output"]
    _reject_unknown(out, "output", {"path", "format"}, bad)
    out_path = out.get("path")
    if out_path is not None and not isinstance(out_path, str):
        bad.append(f"output.path: must be a string, got {out_path!r}")
        out_path = None
    out_format = out.get("format", "csv")
    if out_format not in _FORMATS:
        bad.append(f"output.format: must be 'csv' or 'json', got {out_format!r}")
        out_format = "csv"

    parts = {}
    for label, ctor, kwargs in (
            ("market", MarketParams, market_args),
            ("payoff", Payoff, dict(kind=po_kind if po_kind in KINDS
                                    and po_kind != CUSTOM else "Digital",
                                    strike=po_strike)),
            ("loss", LossSpec, dict(kind=lo_kind if lo_kind in (LINEAR, POWER)
                                    else LINEAR, p=lo_p)),
            ("solver", SolveConfig, solver_args),
            ("mc", McConfig, mc_args)):
        try:
            parts[label] = ctor(**kwargs)
        except ValidationError as exc:
            bad.extend(f"{label}.{v}" for v in exc.violations)
    if bad:
        raise ValidationError(bad)
    return RunConfig(market=parts["market"], payoff=parts["payoff"],
                     loss=parts["loss"], solver=parts["solver"],
                     mc=parts["mc"], out_path=out_path, out_format=out_format)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError([f"config: cannot read {path!r}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ValidationError([f"config: {path!r} is not valid JSON: {exc}"])
    return parse_config(data)


class _Symbols:
    """Lazy values for the expression symbols, computed at most once."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._cache: dict[str, float] = {}

    def value(self, name: str) -> float:
        got = self._cache.get(name)
        if got is None:
            cfg = self.config
            if name in ("p(H)", "price"):
                got = price(cfg.payoff, cfg.market, cfg.mc)
            elif name == "E[H]":
                got = _edges(cfg.payoff, cfg.market, LossSpec(LINEAR),
                             cfg.mc)[0]
            else:  # E[l(H)]
                got = _edges(cfg.payoff, cfg.market, cfg.loss, cfg.mc)[0]
            self._cache[name] = got
        return got


_SYMBOL_TOKENS = ("E[l(H)]", "E[H]", "p(H)", "price")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _arith(node) -> float:
    """Value of a parsed expression made only of number literals, unary
    +/-, the binary operators + - * / and parentheses."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_arith(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_arith(node.left), _arith(node.right))
    raise ValueError("only numbers, + - * / ( ) and the symbols p(H), "
                     "price, E[H], E[l(H)] are allowed")


def resolve_expr(expr: str, symbols: _Symbols) -> float:
    """Evaluate an arithmetic expression over numbers and the named symbols."""
    s = expr
    for token in _SYMBOL_TOKENS:
        if token in s:
            s = s.replace(token, f"({symbols.value(token):.17g})")
    try:
        v = _arith(ast.parse(s.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError,
            RecursionError, MemoryError) as exc:
        raise ValidationError([f"expression {expr!r}: {exc}"])
    if not math.isfinite(v):
        raise ValidationError([f"expression {expr!r}: evaluates to {v!r}"])
    return v


def resolve_grid(spec: str, symbols: _Symbols) -> list:
    """Parse 'start:stop:count' into an inclusive evenly spaced grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(
            [f"grid {spec!r}: expected start:stop:count"])
    lo = resolve_expr(parts[0], symbols)
    hi = resolve_expr(parts[1], symbols)
    try:
        n = int(parts[2])
    except ValueError:
        raise ValidationError([f"grid {spec!r}: count must be an integer"])
    if n < 1:
        raise ValidationError([f"grid {spec!r}: count must be >= 1"])
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n)]
    pts[-1] = hi
    return pts


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    return str(v)


def _sanitize(v):
    """JSON-safe value: non-finite floats become strings."""
    if isinstance(v, float) and not math.isfinite(v):
        return _fmt(v)
    return v


def _render(command: str, config: RunConfig, header: list, rows: list,
            results, comments: Optional[list] = None) -> str:
    if config.out_format == "json":
        doc = {"command": command, "seed": config.mc.seed,
               "config": config.to_dict(), "results": results}
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"# command: {command}",
             f"# seed: {config.mc.seed}",
             "# config: " + json.dumps(config.to_dict(),
                                       separators=(",", ":"))]
    lines.extend(f"# {c}" for c in (comments or []))
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _run_price(config: RunConfig, symbols: _Symbols, options) -> str:
    v = price(config.payoff, config.market, config.mc)
    return _render("price", config, ["key", "value"], [["price", v]],
                   {"price": _sanitize(v)})


def _run_psi(config: RunConfig, symbols: _Symbols, options) -> str:
    c = resolve_expr(getattr(options, "c", None) or "0", symbols)
    if config.loss.kind == LINEAR:
        pair = psi_linear(config.payoff, config.market, c=c)
    else:
        pair = psi_power(config.payoff, config.market, c=c, p=config.loss.p)
    row = [c, pair.psi1, pair.psi2, pair.method, pair.err_estimate]
    results = {"c": _sanitize(c), "psi1": _sanitize(pair.psi1),
               "psi2": _sanitize(pair.psi2), "method": pair.method,
               "err_estimate": _sanitize(pair.err_estimate)}
    return _render("psi", config,
                   ["c", "psi1", "psi2", "method", "err_estimate"], [row],
                   results)


def _run_phi(command: str, config: RunConfig, symbols: _Symbols,
             options) -> str:
    if command == "phi1":
        g = resolve_expr(options.x, symbols)
        value, c, err, method = _one(_phi1_impl(
            config.payoff, config.market, config.loss, [g], config.solver,
            config.mc))[:4]
    else:
        g = resolve_expr(options.v, symbols)
        value, c, err, method = _one(_phi2_impl(
            config.payoff, config.market, config.loss, [g], config.solver,
            config.mc))
    row = [g, value, c, method, err]
    results = {"input": _sanitize(g), "value": _sanitize(value),
               "c": _sanitize(c), "method": method,
               "err_estimate": _sanitize(err)}
    return _render(command, config,
                   ["input", "value", "c", "method", "err_estimate"], [row],
                   results)


def _run_curve(config: RunConfig, symbols: _Symbols, options) -> str:
    grid = resolve_grid(options.grid, symbols)
    rc = curve(config.payoff, config.market, config.loss, options.kind, grid,
               config.solver, config.mc)
    rows = [[p.input, p.value, p.c, p.method, p.err_estimate]
            for p in rc.points]
    comments = [f"failed input={_fmt(p.input)}: {p.error}"
                for p in rc.points if p.error]
    points = [{"input": _sanitize(p.input), "value": _sanitize(p.value),
               "c": _sanitize(p.c), "method": p.method,
               "err_estimate": _sanitize(p.err_estimate),
               "error": p.error} for p in rc.points]
    results = {"kind": rc.kind, "points": points}
    return _render("curve", config,
                   ["input", "value", "c", "method", "err_estimate"], rows,
                   results, comments)


def _run_verify(config: RunConfig, symbols: _Symbols, options) -> str:
    x = resolve_expr(options.x, symbols)
    rep = verify_risk(config.payoff, config.market, config.loss, x, config.mc)
    fields = [("x", rep.x), ("price", rep.price), ("c", rep.c),
              ("engine_risk", rep.engine_risk), ("mc_risk", rep.mc_risk),
              ("mc_risk_se", rep.mc_risk_se), ("mc_cost", rep.mc_cost),
              ("mc_cost_se", rep.mc_cost_se), ("risk_ok", rep.risk_ok),
              ("cost_ok", rep.cost_ok), ("ok", rep.ok)]
    results = {k: _sanitize(v) for k, v in fields}
    return _render("verify", config, ["key", "value"],
                   [[k, v] for k, v in fields], results)


_COMMANDS = {"price": _run_price, "psi": _run_psi, "phi1": _run_phi,
             "phi2": _run_phi, "curve": _run_curve, "verify": _run_verify}


def run(command: str, config: RunConfig, options) -> str:
    """Execute one command against a resolved config; returns the artifact
    text (CSV or JSON per config.out_format)."""
    symbols = _Symbols(config)
    handler = _COMMANDS[command]
    if command in ("phi1", "phi2"):
        return handler(command, config, symbols, options)
    return handler(config, symbols, options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortfall-hedge",
        description="Shortfall risk and cost reduction for two-asset options.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, metavar="FILE",
                         help="strict-JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override mc.seed")
        cmd.add_argument("--out", default=None, metavar="FILE",
                         help="write the artifact here instead of stdout")
        cmd.add_argument("--format", choices=_FORMATS, default=None,
                         help="artifact format (default csv)")
        return cmd

    add("price", "arbitrage-free price p(H)")
    psi = add("psi", "(Psi1, Psi2) at a region parameter c")
    psi.add_argument("--c", default="0", metavar="EXPR")
    p1 = add("phi1", "minimal shortfall risk at capital x")
    p1.add_argument("--x", required=True, metavar="EXPR")
    p2 = add("phi2", "cheapest capital for risk bound v")
    p2.add_argument("--v", required=True, metavar="EXPR")
    cv = add("curve", "phi1 or phi2 over a grid")
    cv.add_argument("kind", choices=("phi1", "phi2"))
    cv.add_argument("--grid", required=True, metavar="START:STOP:COUNT")
    vf = add("verify", "engine risk vs direct simulation")
    vf.add_argument("--x", required=True, metavar="EXPR")
    return parser


def _apply_overrides(config: RunConfig, options) -> RunConfig:
    mc = config.mc
    if options.seed is not None:
        mc = McConfig(n_paths=mc.n_paths, seed=options.seed,
                      antithetic=mc.antithetic)
    out_path = options.out if options.out is not None else config.out_path
    out_format = options.format if options.format is not None \
        else config.out_format
    return RunConfig(market=config.market, payoff=config.payoff,
                     loss=config.loss, solver=config.solver, mc=mc,
                     out_path=out_path, out_format=out_format)


def main(argv=None) -> int:
    options = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(options.config), options)
        text = run(options.command, config, options)
        if config.out_path:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ValidationError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    except AssumptionViolatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OutOfRangeError, InfeasibleInversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except HeavyTailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (PayoffContractError, UnsupportedClosedFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except NanGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 7
    except ShortfallHedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
