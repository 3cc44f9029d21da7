"""Command line front end.

    shortfall-hedge <command> --config cfg.json [options]

Commands
    price   arbitrage-free price p(H)
    psi     (Psi1, Psi2) at one region parameter c     (--c)
    phi1    minimal shortfall risk at capital x        (--x)
    phi2    cheapest capital for risk bound v          (--v)
    curve   phi1 or phi2 over a grid                   (curve phi1 --grid a:b:n)
    verify  engine risk vs direct simulation           (--x)

The config file is strict JSON in the format of _SCHEMA: sections market,
payoff, loss are required, mc and output optional, unknown keys anywhere
are rejected, integer fields take whole numbers only and mc.seed must be
>= 0.  The mc section sets only verify's simulation: where a named payoff
leaves quadrature, the engine solves on its own Monte Carlo sample, in
verify too.  Numeric options accept arithmetic
over the symbols p(H), price, E[H] and E[l(H)], e.g. --x 0.5*price or
--grid 0:p(H):21.
Every artifact embeds the resolved config and seed; CSV carries them as
'#' comment lines, JSON as a "config" object that parses back to the
identical run configuration.  Floats print with 12 significant digits.
Each command makes one table (a header and rows); the CSV prints it and
the JSON "results" are derived from it.  Errors exit with the code of
their type in _EXIT_CODES: 2 for an invalid config, option or an
unwritable --out.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import (AssumptionViolatedError, HeavyTailError,
                     InfeasibleInversionError, NanGuardError, OutOfRangeError,
                     PayoffContractError, ShortfallHedgeError,
                     UnsupportedClosedFormError, ValidationError)
from .market import MarketParams, _real
from .mc import McConfig, verify_risk
from .payoffs import CUSTOM, DIGITAL, KINDS, Payoff
from .psi import LINEAR, POWER, LossSpec, _psi_pair
from .solver import _edges, _one, _phi1_impl, _phi2_impl, curve, price

_FORMATS = ("csv", "json")
# the most points a --grid may ask for
_GRID_MAX_POINTS = 10_000


@dataclass(frozen=True)
class Output:
    """Where the artifact goes (None: stdout) and in which format."""

    path: Optional[str] = None
    format: str = "csv"


# The JSON types of config values, named as their error messages say them;
# a tuple type is the set of strings a key may take.
_PAIR = "a list of two numbers"
_NUM = "a number"
_INT = "an integer"
_PATH = "a string or null"

# The config format: section -> key -> type.  The keys are the fields of the
# section's part of RunConfig; parse_config reads them and to_dict writes them.
_SCHEMA = {
    "market": {"s0": _PAIR, "alpha": _PAIR, "sigma": _PAIR, "rho": _NUM,
               "r": _NUM, "T": _NUM},
    "payoff": {"kind": tuple(k for k in KINDS if k != CUSTOM),
               "strike": _NUM},
    "loss": {"kind": (LINEAR, POWER), "p": _NUM},
    "mc": {"n_paths": _INT, "seed": _INT},
    "output": {"path": _PATH, "format": _FORMATS},
}
_REQUIRED = ("market", "payoff", "loss")
# Each section is built from these by dataclasses.replace with the fields the
# file got right: defaults for the optional sections, valid stand-ins for the
# required ones.  A stand-in value of None marks a key the file may omit.
_START = {
    "market": MarketParams(s0=(1.0, 1.0), alpha=(0.0, 0.0), sigma=(1.0, 1.0),
                           rho=0.0, r=0.0, T=1.0),
    "payoff": Payoff(DIGITAL, 1.0),
    "loss": LossSpec(LINEAR),
    "mc": McConfig(n_paths=200_000, seed=1),
    "output": Output(),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (config file plus CLI overrides)."""

    market: MarketParams
    payoff: Payoff
    loss: LossSpec
    mc: McConfig
    output: Output

    def to_dict(self) -> dict:
        """The config as JSON values, in the format that parse_config reads;
        a None value is left out unless its type admits null."""
        doc = {}
        for name, keys in _SCHEMA.items():
            part = getattr(self, name)
            doc[name] = {}
            for key, kind in keys.items():
                v = getattr(part, key)
                if v is not None or kind == _PATH:
                    doc[name][key] = list(v) if kind == _PAIR else v
        return doc


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _convert(kind, v):
    """(value, None) for a JSON value v of the config type kind, else
    (None, what is wrong with it)."""
    if isinstance(kind, tuple):
        if v in kind:
            return v, None
        return None, f"must be one of {', '.join(kind)}, got {v!r}"
    if kind == _PAIR:
        if isinstance(v, list) and len(v) == 2 and all(map(_is_num, v)):
            return (float(v[0]), float(v[1])), None
    elif kind == _PATH:
        if v is None or isinstance(v, str):
            return v, None
    elif _is_num(v):
        if kind == _INT and isinstance(v, int):
            return v, None
        f = _real(v)  # NaN for an integer literal past the float range
        if not math.isfinite(f):
            return None, f"must be finite, got {v!r}"
        if kind == _NUM:
            return f, None
        if f == int(f):
            return int(f), None
    return None, f"must be {kind}, got {v!r}"


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, strictly.

    Collects every violation (unknown keys, missing sections and keys,
    types, and the invariants of each part's constructor) into one
    ValidationError, one line per wrong field.
    """
    if not isinstance(data, dict):
        raise ValidationError(["config: top level must be a JSON object"])
    bad = [f"config.{key}: unknown key" for key in data if key not in _SCHEMA]
    parts = {}
    for name, keys in _SCHEMA.items():
        start, sec = _START[name], data.get(name)
        if not isinstance(sec, dict):
            if sec is not None:
                bad.append(f"{name}: must be a JSON object")
            elif name in _REQUIRED:
                bad.append(f"{name}: missing required section")
            parts[name] = start
            continue
        bad.extend(f"{name}.{key}: unknown key" for key in sec
                   if key not in keys)
        good, wrong = {}, []
        for key, kind in keys.items():
            if key in sec:
                value, why = _convert(kind, sec[key])
            elif name in _REQUIRED and getattr(start, key) is not None:
                value, why = None, "missing required key"
            else:
                continue
            if why:
                wrong.append(f"{name}.{key}")
                bad.append(f"{name}.{key}: {why}")
            else:
                good[key] = value
        try:
            parts[name] = replace(start, **good)
        except ValidationError as exc:
            for v in exc.violations:
                v = v if v.startswith(f"{name}.") else f"{name}.{v}"
                if v.split(":")[0].split("[")[0] not in wrong:
                    bad.append(v)
    if bad:
        raise ValidationError(bad)
    return RunConfig(**parts)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError([f"config: cannot read {path!r}: {exc}"])
    except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
        raise ValidationError([f"config: {path!r} is not valid JSON: {exc}"])
    return parse_config(data)


def _symbol(config: RunConfig, name: str) -> float:
    """The value of an expression symbol; price and _edges memoise it."""
    if name in ("p(H)", "price"):
        return price(config.payoff, config.market)
    loss = LossSpec(LINEAR) if name == "E[H]" else config.loss  # E[l(H)]
    return _edges(config.payoff, config.market, loss, None)[0]


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


def resolve_expr(expr: str, config: RunConfig) -> float:
    """Evaluate an arithmetic expression over numbers and the named symbols."""
    s = expr
    for token in _SYMBOL_TOKENS:
        if token in s:
            s = s.replace(token, f"({_symbol(config, token):.17g})")
    try:
        v = _arith(ast.parse(s.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError,
            RecursionError, MemoryError) as exc:
        raise ValidationError([f"expression {expr!r}: {exc}"])
    if not math.isfinite(v):
        raise ValidationError([f"expression {expr!r}: evaluates to {v!r}"])
    return v


def resolve_grid(spec: str, config: RunConfig) -> list:
    """Parse 'start:stop:count' into an inclusive evenly spaced grid of
    1 to _GRID_MAX_POINTS points; the count is checked before the bounds
    are resolved."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(
            [f"grid {spec!r}: expected start:stop:count"])
    try:
        n = int(parts[2])
    except ValueError:
        raise ValidationError([f"grid {spec!r}: count must be an integer"])
    if not 1 <= n <= _GRID_MAX_POINTS:
        raise ValidationError([f"grid {spec!r}: count must be between 1 "
                               f"and {_GRID_MAX_POINTS}"])
    lo = resolve_expr(parts[0], config)
    hi = resolve_expr(parts[1], config)
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n)]
    pts[-1] = hi
    return pts


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _sanitize(v):
    """JSON-safe value: non-finite floats become strings."""
    if isinstance(v, float) and not math.isfinite(v):
        return _fmt(v)
    return v


_KEY_VALUE = ["key", "value"]
_POINT = ["input", "value", "c", "method", "err_estimate"]


def _run_price(config: RunConfig, options):
    return _KEY_VALUE, [["price", price(config.payoff, config.market)]], None


def _run_psi(config: RunConfig, options):
    c = resolve_expr(options.c or "0", config)
    pair = _psi_pair(config.payoff, config.market, config.loss, c)
    return (["c", "psi1", "psi2", "method", "err_estimate"],
            [[c, pair.psi1, pair.psi2, pair.method, pair.err_estimate]], None)


def _run_phi(impl, arg: str):
    """The handler of phi1 (impl _phi1_impl, option --x) or phi2."""
    def handler(config: RunConfig, options):
        g = resolve_expr(getattr(options, arg), config)
        value, c, err, method = _one(impl(
            config.payoff, config.market, config.loss, [g], None))[:4]
        return _POINT, [[g, value, c, method, err]], None
    return handler


def _run_curve(config: RunConfig, options):
    grid = resolve_grid(options.grid, config)
    rc = curve(config.payoff, config.market, config.loss, options.kind, grid)
    return (_POINT, [[p.input, p.value, p.c, p.method, p.err_estimate]
                     for p in rc.points], [p.error for p in rc.points])


def _run_verify(config: RunConfig, options):
    x = resolve_expr(options.x, config)
    rep = verify_risk(config.payoff, config.market, config.loss, x, config.mc)
    rows = [[f.name, getattr(rep, f.name)] for f in fields(rep)]
    return _KEY_VALUE, rows + [["ok", rep.ok]], None


# command -> handler(config, options) returning the command's table:
# (header, rows, errors), errors a per-row list for curve, else None
_COMMANDS = {"price": _run_price, "psi": _run_psi,
             "phi1": _run_phi(_phi1_impl, "x"),
             "phi2": _run_phi(_phi2_impl, "v"),
             "curve": _run_curve, "verify": _run_verify}


def _results(header: list, rows: list, errors: Optional[list], options):
    """The JSON results of a table: a dict of a key,value table, the object
    of a single row, or a curve's kind and points (each row's object plus
    its error)."""
    if header == _KEY_VALUE:
        return {k: _sanitize(v) for k, v in rows}
    objs = [{h: _sanitize(v) for h, v in zip(header, row)} for row in rows]
    if errors is None:
        return objs[0]
    return {"kind": options.kind,
            "points": [dict(o, error=e) for o, e in zip(objs, errors)]}


def run(command: str, config: RunConfig, options) -> str:
    """Execute one command against a resolved config; returns the artifact
    text (CSV or JSON per config.output.format)."""
    header, rows, errors = _COMMANDS[command](config, options)
    if config.output.format == "json":
        doc = {"command": command, "seed": config.mc.seed,
               "config": config.to_dict(),
               "results": _results(header, rows, errors, options)}
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"# command: {command}",
             f"# seed: {config.mc.seed}",
             "# config: " + json.dumps(config.to_dict(),
                                       separators=(",", ":"))]
    lines.extend(f"# failed input={_fmt(row[0])}: {e}"
                 for row, e in zip(rows, errors or ()) if e)
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


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


# built once: parse_args keeps no state between calls
_PARSER = _build_parser()


def _apply_overrides(config: RunConfig, options) -> RunConfig:
    mc = config.mc if options.seed is None else replace(config.mc,
                                                         seed=options.seed)
    output = Output(config.output.path if options.out is None else options.out,
                    options.format or config.output.format)
    return replace(config, mc=mc, output=output)


# error type -> exit code, first match wins (ValidationError before its base)
_EXIT_CODES = (
    (ValidationError, 2),
    (AssumptionViolatedError, 3),
    ((OutOfRangeError, InfeasibleInversionError), 4),
    (HeavyTailError, 5),
    ((PayoffContractError, UnsupportedClosedFormError), 6),
    (NanGuardError, 7),
    (ShortfallHedgeError, 1),
)


def main(argv=None) -> int:
    options = _PARSER.parse_args(argv)
    try:
        config = _apply_overrides(load_config(options.config), options)
        text = run(options.command, config, options)
        if not config.output.path:
            sys.stdout.write(text)
            return 0
        try:
            with open(config.output.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError([f"output.path: cannot write "
                                   f"{config.output.path!r}: {exc}"])
        return 0
    except ShortfallHedgeError as exc:
        for line in getattr(exc, "violations", [exc]):
            print(f"error: {line}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES
                    if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
