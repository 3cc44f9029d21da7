"""The benchmark's workloads: contracts, seeded inputs, timed ops, checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned and been checked.  Inputs come only from the
workload seed.  A round visits every contract of the workload `strata`
times, in a seeded order; the runner measures whole rounds, so each run
times the same mix of contracts and its medians stay comparable across
seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import shortfall_hedge as sh
from shortfall_hedge import cli

# The desk market of tests/conftest.py, repeated here so the benchmark does
# not import the test suite.
DESK = dict(s0=(100.0, 95.0), alpha=(0.08, 0.05), sigma=(0.2, 0.3),
            r=0.02, T=1.0)
DESK_PAYOFFS = (
    sh.Payoff(sh.DIGITAL, strike=10.0),
    sh.Payoff(sh.QUANTO_DOMESTIC, strike=100.0),
    sh.Payoff(sh.QUANTO_FOREIGN, strike=9500.0),
    sh.Payoff(sh.OUTPERFORMANCE, strike=100.0),
    sh.Payoff(sh.SPREAD, strike=5.0),
)
LOSSES = (sh.LossSpec(sh.LINEAR), sh.LossSpec(sh.POWER, p=2.0))
MC_PATHS = 200_000
TARGET_TOL = sh.SolveConfig().abs_tol_target
MC_SIGMAS = 4.0


def _basket_call(s1, s2):
    return np.maximum(0.5 * s1 + 0.5 * s2 - 95.0, 0.0)


def _worst_of_put(s1, s2):
    return np.maximum(100.0 - np.minimum(s1, s2), 0.0)


@dataclass
class Contract:
    name: str
    payoff: sh.Payoff
    params: sh.MarketParams
    loss: sh.LossSpec
    mc_route: bool = False
    mc: Optional[sh.McConfig] = None  # simulation config of the MC checks
    price: float = math.nan           # p(H), filled by setup
    ceiling: float = math.nan         # E[l(H)], filled by setup
    config: str = ""                  # CLI config file (curve-book)
    _errs: dict = field(default_factory=dict)

    @property
    def engine_mc(self):
        """The mc argument the engine takes: only Custom payoffs use it,
        as in verify_risk."""
        return self.mc if self.payoff.kind == sh.CUSTOM else None

    def err(self, c: float) -> float:
        """Check tolerance at region parameter c: MC_SIGMAS standard errors
        on the MC route, else the quadrature err_estimate of the Psi pair."""
        if c not in self._errs:
            self._errs[c] = self._err(c)
        return self._errs[c]

    def _err(self, c: float) -> float:
        if self.mc_route:
            se = sh.psi_mc(self.payoff, self.params, self.loss, c,
                           self.mc.n_paths, self.mc.seed).err_estimate
            return MC_SIGMAS * se
        if self.loss.kind == sh.LINEAR:
            return sh.psi_linear(self.payoff, self.params, c=c).err_estimate
        return sh.psi_power(self.payoff, self.params, c=c,
                            p=self.loss.p).err_estimate

    def tol(self, scale: float, c: float) -> float:
        """err(c) plus, on the quadrature route, the solver's target
        tolerance at the given value scale."""
        if self.mc_route:
            return self.err(c)
        return self.err(c) + TARGET_TOL * max(1.0, scale)


def desk_contracts() -> list:
    params = sh.MarketParams(rho=-0.5, **DESK)
    return [Contract(f"{p.kind}/{loss.kind}", p, params, loss)
            for p in DESK_PAYOFFS for loss in LOSSES]


def mc_contracts(seed_rng: random.Random) -> list:
    params = sh.MarketParams(rho=-0.5, **DESK)
    basket = sh.Payoff(sh.CUSTOM, custom_eval=_basket_call)
    worst = sh.Payoff(sh.CUSTOM, custom_eval=_worst_of_put)
    out = [Contract(f"{name}/{loss.kind}", p, params, loss, mc_route=True)
           for name, p in (("basket-call", basket), ("worst-of-put", worst))
           for loss in LOSSES]
    # the power sign condition fails at rho = 0.6: the engine falls back to MC
    out.append(Contract("Outperformance/power/rho0.6",
                        sh.Payoff(sh.OUTPERFORMANCE, strike=100.0),
                        sh.MarketParams(rho=0.6, **DESK), LOSSES[1],
                        mc_route=True))
    for c in out:
        c.mc = sh.McConfig(MC_PATHS, seed=seed_rng.randrange(1, 2 ** 31))
    return out


class Recorder:
    """Times ops, counts attempts and failures, and keeps round-0 values.

    With a tracer every op runs twice, untraced and then traced, and both
    results must agree exactly.
    """

    def __init__(self, tracer=None, reference: Optional[dict] = None,
                 log=None):
        self.tracer = tracer
        self.reference = reference
        self.log = log
        self.latencies_ms: list = []
        self.traced_ms: list = []
        self.attempted = 0
        self.failed_ops: set = set()
        self.values: dict = {}
        self.round = 0
        self.verify_not_ok = 0  # reports whose own ok flag was False

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, msg: str):
        self.failed_ops.add(self.attempted)
        if self.log:
            self.log(f"failed op {self.attempted}: {msg}")

    def check(self, ok: bool, msg: str):
        if not ok:
            self.fail(msg)

    def op(self, label: str, fn):
        """Run one timed op; its result, or None when it raised."""
        self.attempted += 1
        try:
            t = time.perf_counter()
            result = fn()
            self.latencies_ms.append((time.perf_counter() - t) * 1e3)
            if self.tracer is not None:
                t = time.perf_counter()
                traced = self.tracer.run(self.attempted, fn)
                self.traced_ms.append((time.perf_counter() - t) * 1e3)
                self.check(traced == result,
                           f"{label}: traced result differs from untraced")
        except Exception:  # the loop goes on; the op counts as failed
            self.fail(f"{label} raised\n{traceback.format_exc()}")
            return None
        return result

    def skip(self, label: str):
        """An op that cannot run because the op it depends on failed."""
        self.attempted += 1
        self.fail(f"{label}: not run, its input op failed")

    def expect(self, key: str, value: float, tol: float):
        """Round-0 value: kept for the reference file and, when a reference
        is loaded, compared with it."""
        if self.round != 0:
            return
        self.values[key] = value
        if self.reference is not None:
            ref = self.reference.get(key)
            self.check(ref is not None and abs(value - ref) <= tol,
                       f"{key}: {value!r} differs from reference {ref!r} "
                       f"by more than {tol:.3g}")


class Workload:
    """Contracts plus the ops of one visit; subclasses define both."""

    name = ""
    u_range = (0.05, 0.95)
    strata = 1

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.contracts = self.make_contracts(self.rng)

    def make_contracts(self, rng):
        raise NotImplementedError

    def setup(self):
        """p(H) and E[l(H)] per contract; fills the solver's edge cache."""
        for c in self.contracts:
            c.price = sh.price(c.payoff, c.params, c.engine_mc)
            c.ceiling, _ = sh.phi1(c.payoff, c.params, c.loss, 0.0,
                                   mc=c.engine_mc)

    def next_round(self) -> list:
        """Seeded inputs of one round as (contract, tag, u) triples: every
        contract `strata` times, u drawn once from each of `strata` equal
        slices of u_range, all in a seeded order."""
        lo, hi = self.u_range
        width = (hi - lo) / self.strata
        visits = [(c, f"{c.name}#{k}", lo + width * (k + self.rng.random()))
                  for c in self.contracts for k in range(self.strata)]
        self.rng.shuffle(visits)
        return visits

    def visit(self, rec: Recorder, c: Contract, tag: str, u: float):
        raise NotImplementedError

    def phi_round_trip(self, rec: Recorder, c: Contract, tag: str, x: float):
        """phi1 at capital x, then phi2 at the risk it returned."""
        got = rec.op(f"{c.name} phi1",
                     lambda: sh.phi1(c.payoff, c.params, c.loss, x,
                                     mc=c.engine_mc))
        if got is None:
            rec.skip(f"{c.name} phi2")
            return None
        risk, c1 = got
        tol = c.tol(c.ceiling, c1)
        rec.check(-tol <= risk <= c.ceiling + tol,
                  f"{c.name} phi1({x!r}) = {risk!r} outside [0, {c.ceiling!r}]")
        rec.expect(f"{tag}/phi1", risk, tol)
        got = rec.op(f"{c.name} phi2",
                     lambda: sh.phi2(c.payoff, c.params, c.loss, risk,
                                     mc=c.engine_mc))
        if got is None:
            return None
        cost, c2 = got
        tol = c.tol(c.price, c2)
        rec.check(abs(cost - x) <= tol,
                  f"{c.name} phi2(phi1({x!r})) = {cost!r}, off by "
                  f"{cost - x:.3g} > {tol:.3g}")
        rec.expect(f"{tag}/phi2", cost, tol)
        return risk, c1


class DeskQuad(Workload):
    """The ten named contracts on the closed-form (quadrature) route."""

    name = "desk-quad"
    # five stratified capitals per contract make a round of 100 ops of
    # nearly the same mix, whatever the seed
    strata = 5

    def make_contracts(self, rng):
        return desk_contracts()

    def visit(self, rec, c, tag, u):
        self.phi_round_trip(rec, c, tag, u * c.price)


class McRoute(Workload):
    """Custom payoffs and a failed power sign condition: the MC route."""

    name = "mc-route"

    def make_contracts(self, rng):
        return mc_contracts(rng)

    def visit(self, rec, c, tag, u):
        x = u * c.price
        got = self.phi_round_trip(rec, c, tag, x)
        if got is None:
            rec.skip(f"{c.name} verify")
            return
        risk, c1 = got
        rep = rec.op(f"{c.name} verify",
                     lambda: sh.verify_risk(c.payoff, c.params, c.loss, x,
                                            c.mc))
        if rep is None:
            return
        # verify_risk's own ok flag tests at 3 se of its simulation alone and
        # ignores the engine's MC error, so it rejects correct results by
        # chance; check at MC_SIGMAS combined standard errors instead.
        eng = c.err(c1) / MC_SIGMAS
        rec.check(rep.engine_risk == risk,
                  f"{c.name} verify: engine risk {rep.engine_risk!r} != "
                  f"phi1 risk {risk!r}")
        rec.check(abs(rep.mc_risk - risk)
                  <= MC_SIGMAS * math.hypot(rep.mc_risk_se, eng),
                  f"{c.name} verify: simulated risk {rep.mc_risk!r} vs "
                  f"engine {risk!r} (se {rep.mc_risk_se:.3g})")
        rec.check(abs(rep.mc_cost - x)
                  <= MC_SIGMAS * math.hypot(rep.mc_cost_se, eng),
                  f"{c.name} verify: simulated cost {rep.mc_cost!r} vs "
                  f"capital {x!r} (se {rep.mc_cost_se:.3g})")
        rec.verify_not_ok += not rep.ok
        rec.expect(f"{tag}/verify.mc_risk", rep.mc_risk,
                   MC_SIGMAS * rep.mc_risk_se)


# One 21-point curve per contract and round; the kinds alternate so that each
# (loss, kind) pair appears on two or three payoffs.  Twenty curves a round
# (both kinds on every contract) would take about a minute on two cores.
CURVE_KIND = {
    "Digital/linear": "phi2", "Digital/power": "phi1",
    "QuantoDomestic/linear": "phi1", "QuantoDomestic/power": "phi2",
    "QuantoForeign/linear": "phi2", "QuantoForeign/power": "phi1",
    "Outperformance/linear": "phi1", "Outperformance/power": "phi2",
    "Spread/linear": "phi2", "Spread/power": "phi1",
}
CURVE_POINTS = 21


def _cli(argv: list):
    """cli.main in process; (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CurveBook(Workload):
    """A 21-point phi1 or phi2 curve per named contract through the CLI."""

    name = "curve-book"
    u_range = (0.9, 1.0)

    def make_contracts(self, rng):
        return desk_contracts()

    def setup(self):
        """Config files, then `price` and `phi1 --x 0` per contract through
        the CLI, which fills the edge cache under the CLI's own mc config."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for i, c in enumerate(self.contracts):
            loss = {"kind": c.loss.kind}
            if c.loss.kind == sh.POWER:
                loss["p"] = c.loss.p
            doc = {"market": {"s0": list(c.params.s0),
                              "alpha": list(c.params.alpha),
                              "sigma": list(c.params.sigma),
                              "rho": c.params.rho, "r": c.params.r,
                              "T": c.params.T},
                   "payoff": {"kind": c.payoff.kind, "strike": c.payoff.strike},
                   "loss": loss}
            path = self.out_dir / f"contract-{i}.json"
            path.write_text(json.dumps(doc))
            c.config = str(path)
            c.price = self._scalar(["price", "--config", c.config], "price")
            c.ceiling = self._scalar(["phi1", "--config", c.config,
                                      "--x", "0"], "value")

    @staticmethod
    def _scalar(argv, key):
        code, text = _cli(argv + ["--format", "json"])
        if code != 0:
            raise RuntimeError(f"setup: {' '.join(argv)} exited {code}")
        return float(json.loads(text)["results"][key])

    def visit(self, rec, c, tag, u):
        kind = CURVE_KIND[c.name]
        top = "p(H)" if kind == "phi1" else "E[l(H)]"
        argv = ["curve", kind, "--config", c.config, "--grid",
                f"0:{u!r}*{top}:{CURVE_POINTS}", "--format", "json"]
        got = rec.op(f"{c.name} curve {kind}", lambda: _cli(argv))
        if got is None:
            return
        code, text = got
        rec.check(code == 0, f"{c.name} curve {kind} exited {code}")
        if code != 0:
            return
        points = json.loads(text)["results"]["points"]
        scale = c.ceiling if kind == "phi1" else c.price
        values = [float(p["value"]) for p in points]
        errs = [float(p["err_estimate"]) for p in points]
        rec.check(len(points) == CURVE_POINTS
                  and all(p["error"] is None for p in points)
                  and all(math.isfinite(v) for v in values + errs),
                  f"{c.name} curve {kind}: point errors "
                  f"{[p['error'] for p in points if p['error']]}")
        slack = TARGET_TOL * max(1.0, scale)
        for i in range(len(values) - 1):
            rec.check(values[i + 1] <= values[i] + errs[i] + errs[i + 1] + slack,
                      f"{c.name} curve {kind}: increases at point {i + 1} "
                      f"({values[i]!r} -> {values[i + 1]!r})")
        for i, (v, e) in enumerate(zip(values, errs)):
            rec.expect(f"{tag}/curve-{kind}/{i}", v, e + slack)


WORKLOADS = {w.name: w for w in (DeskQuad, CurveBook, McRoute)}
