"""The three benchmark workloads: input generation, the timed batch, output checks.

Every workload is a batch of operations issued from one process through the
package's public surface (``theta5.cli.run`` and the top-level exports).  The
seed only chooses inputs; the package never sees it, except as the numeric
lane's ``NumericConfig(rng_seed=...)``, which is that lane's documented input.
Checks run after the timed region and never call private names.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import theta5
import theta5.cli
from theta5 import (CATALOG_CHARS, FracSeries, NumericConfig, Phase,
                    divisor_sum, series_equal, theta_const)
from theta5.arith import pentagonal_numbers

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: The printed misprints: these entries fail as-stated, and that is the correct result.
AS_STATED_FAILURES = frozenset({"T1d", "D3", "D4", "ME6", "W6"})

#: Problem sizes.  "smoke" keeps every check and shrinks every order so the
#: whole harness runs in seconds.
SIZES = {
    "full": {"catalog_order": 20, "theta_order": 400, "product_order": 80,
             "eta1_order": 200, "eta5_order": 100, "quotient_order": 120,
             "numeric_factor": 4},
    "smoke": {"catalog_order": 10, "theta_order": 40, "product_order": 12,
              "eta1_order": 30, "eta5_order": 10, "quotient_order": 20,
              "numeric_factor": 1},
}

#: Default sample counts of the numeric checks, raised uniformly by the
#: workload's factor (N6 has a fixed sample set), and the tolerances each
#: residual must stay below.
NUMERIC_SAMPLES = {"N1": 20, "N2": 20, "N3": 5, "N4": 50, "N5": 24, "N6": 13}
NUMERIC_TOL = {"N1": 1e-9, "N2": 1e-8, "N3": 1e-8, "N4": 1e-9, "N5": 1e-9, "N6": 1e-9}

#: Characteristics with eps in {1/5, 3/5}: their triple products all cost about
#: the same, so the seed's pick does not change the work of the product slot.
PRODUCT_CHARS = tuple(ch for ch in CATALOG_CHARS if ch.eps.denominator == 5)
OFFSETS = tuple(Fraction(k, 5) for k in range(5))


def catalog_module():
    # the attribute theta5.catalog is the catalog() function, which shadows the submodule
    return importlib.import_module("theta5.catalog")


def char_key(ch) -> str:
    return f"{ch.eps},{ch.eps_prime}"


def series_digest(f: FracSeries) -> str:
    return hashlib.sha256(f"{f.render()}|{f.order}".encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_ops(workload: str, seed: int, batch: int, size: str) -> list:
    """The batch's operations, a pure function of (workload, seed, batch, size)."""
    rng = random.Random(f"{workload}:{seed}:{batch}")
    sz = SIZES[size]
    if workload == "catalog-exact":
        ids = [e.id for e in catalog_module().catalog()]
        rng.shuffle(ids)
        return [["verify", ids, sz["catalog_order"]]]
    if workload == "expand-deep":
        pc = rng.choice(PRODUCT_CHARS)
        ops = [["theta_const", char_key(pc), 0, sz["theta_order"]]]
        for m in (1, 2, 3):
            ops.append(["theta_const", char_key(rng.choice(CATALOG_CHARS)), m,
                        sz["theta_order"]])
        ops += [
            ["theta_const_product", char_key(pc), sz["product_order"]],
            ["eta_q", "1", sz["eta1_order"], str(rng.choice(OFFSETS))],
            ["eta_q", "1/5", sz["eta5_order"], str(rng.choice(OFFSETS))],
            ["eta_quotient", [["1", 5], ["5", -1]], sz["quotient_order"]],
            ["eta_quotient", [["5", 5], ["1", -1]], sz["quotient_order"]],
        ]
        return ops
    if workload == "numeric-seeded":
        cfg_seed = rng.getrandbits(32)
        return [["numeric", cid, NUMERIC_SAMPLES[cid] * sz["numeric_factor"], cfg_seed]
                for cid in sorted(NUMERIC_SAMPLES)]
    raise ValueError(f"unknown workload {workload!r}")


def _char(key: str):
    return theta5.char(*(Fraction(x) for x in key.split(",")))


def _spec(spec) -> list:
    return [(Fraction(m), e) for m, e in spec]


# ---------------------------------------------------------------------------
# the timed batch
# ---------------------------------------------------------------------------

def _run_op(op: list):
    # names are looked up on the package at call time, so a traced run sees its wrappers
    kind = op[0]
    if kind == "verify":
        buf = io.StringIO()
        rc = theta5.cli.run(["verify", "--id", *op[1], "--order", str(op[2]),
                             "--exact-only", "--format", "json"], out=buf)
        return rc, buf.getvalue()
    if kind == "theta_const":
        return theta5.theta_const(_char(op[1]), op[2], op[3])
    if kind == "theta_const_product":
        return theta5.theta_const_product(_char(op[1]), op[2])
    if kind == "eta_q":
        return theta5.eta_q(Fraction(op[1]), op[2], Fraction(op[3]))
    if kind == "eta_quotient":
        return theta5.eta_quotient(_spec(op[1]), op[2])
    if kind == "numeric":
        return theta5.run_numeric_check(op[1], samples=op[2],
                                        cfg=NumericConfig(rng_seed=op[3]))
    raise ValueError(f"unknown operation {kind!r}")


def run_ops(ops: list) -> list:
    """Issue every operation in order; an operation that raises yields its exception."""
    out = []
    for op in ops:
        try:
            out.append(_run_op(op))
        except Exception as exc:  # a failed operation is counted, not fatal
            out.append(exc)
    return out


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------

def _equal_to_order(f: FracSeries, oracle: FracSeries) -> bool:
    """f agrees with the oracle at every exponent the oracle is exact for."""
    res = series_equal(f, oracle)
    return res.passed and res.order_checked == oracle.abs_order()


def pentagonal_eta(mult: Fraction, order: int, offset: Fraction) -> FracSeries:
    """eta(mult*tau + offset) by Euler's pentagonal number theorem, from arith's oracle."""
    bound = int(order / mult) + 1
    terms = [(mult * g, Phase(offset * g).to_cyclo() * sign)
             for g, sign in pentagonal_numbers(bound) if mult * g < order]
    return FracSeries.from_terms(terms, order=order, phase=Phase(offset / 24),
                                 qpow=mult / 24)


def kernel_series(kernel: str, order: int, constant: int = 0, factor: int = 1) -> FracSeries:
    """constant + factor * sum_{1 <= n < order} kernel(n) q^n from the divisor-sum oracle."""
    terms = [(0, constant)] + [(n, factor * divisor_sum(kernel, n)) for n in range(1, order)]
    return FracSeries.from_terms(terms, order=order)


_QUOTIENT_ORACLES = {
    (("1", 5), ("5", -1)): lambda n: kernel_series("A", n, constant=1, factor=-5),
    (("5", 5), ("1", -1)): lambda n: kernel_series("B", n),
}


def _check_expand(op, result, ref: dict, product) -> tuple[bool, str]:
    kind = op[0]
    if kind == "theta_const":
        key = f"{op[1]}|{op[2]}|{op[3]}"
        want = ref["theta_digests"].get(key)
        if want is None or series_digest(result) != want:
            return False, f"theta_const {key}: render digest differs from the reference"
        if op[2] == 0 and product is not None and not _equal_to_order(result, product):
            return False, f"theta_const {key}: direct sum differs from the triple product"
        return True, ""
    if kind == "theta_const_product":
        oracle = theta_const(_char(op[1]), 0, op[2])
        if result.order != op[2] or not _equal_to_order(result, oracle):
            return False, f"theta_const_product {op[1]}: differs from the direct sum"
        return True, ""
    if kind == "eta_q":
        mult, offset = Fraction(op[1]), Fraction(op[3])
        if result.order != op[2] or not _equal_to_order(result, pentagonal_eta(mult, op[2], offset)):
            return False, f"eta_q({op[1]}, {op[2]}, {op[3]}): differs from the pentagonal sum"
        return True, ""
    if kind == "eta_quotient":
        oracle = _QUOTIENT_ORACLES[tuple(map(tuple, op[1]))](op[2])
        if not _equal_to_order(result, oracle):
            return False, f"eta_quotient {op[1]}: differs from the divisor-sum series"
        return True, ""
    raise ValueError(f"unknown operation {kind!r}")


def check(workload: str, ops: list, results: list) -> tuple[int, list[str]]:
    """Returns (operations attempted, failure messages); one message per failed operation."""
    ref = load_reference()
    if workload == "catalog-exact":
        (_, ids, order), result = ops[0], results[0]
        want = ref["catalog"][str(order)]
        if {k for k, v in want.items() if not v["passed"]} != AS_STATED_FAILURES:
            raise RuntimeError(f"reference for order {order} lacks the five as-stated failures")
        if isinstance(result, Exception):
            return len(ids), [f"verify raised {result!r}"] * len(ids)
        rc, text = result
        if rc != 1:
            return len(ids), [f"verify exited {rc}, expected 1"] * len(ids)
        got = {d["id"]: d for d in json.loads(text)}
        fails = [f"{i}: report differs from the reference" for i in ids if got.get(i) != want[i]]
        return len(ids), fails
    if workload == "expand-deep":
        # the theta_const slot at derivative 0 shares its characteristic with the product slot
        product = next((r for op, r in zip(ops, results) if op[0] == "theta_const_product"
                        and not isinstance(r, Exception)), None)
        fails = []
        for op, r in zip(ops, results):
            ok, why = ((False, f"{op[0]} raised {r!r}") if isinstance(r, Exception)
                       else _check_expand(op, r, ref, product))
            if not ok:
                fails.append(why)
        return len(ops), fails
    if workload == "numeric-seeded":
        fails = []
        for op, r in zip(ops, results):
            if isinstance(r, Exception):
                fails.append(f"{op[1]} raised {r!r}")
            elif not r.value < NUMERIC_TOL[op[1]]:
                fails.append(f"{op[1]}: residual {r.value:.3e} >= {NUMERIC_TOL[op[1]]:.0e}")
        return len(ops), fails
    raise ValueError(f"unknown workload {workload!r}")
