"""Spans around the package's public functions, installed from outside the package.

``Tracer.install()`` replaces every module-level binding (and class attribute,
aliases such as ``__rmul__`` included) of each traced function with a wrapper
that records a span (name, start, end, parent span, run id).  ``remove()``
puts the original objects back.  Spans stay in memory until ``metrics()``
reduces them to the per-layer numbers.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

from theta5 import CycloQ5, FracSeries

#: Per-layer metric names, in report order.
METRICS = (
    "catalog.build_s", "catalog.compare_s",
    "theta.theta_const.calls", "theta.theta_const.s", "theta.theta_const_product.s",
    "theta.eta_q.calls", "theta.eta_q.s", "theta.eta_quotient.s", "theta.build_reuse",
    "series.mul.calls", "series.mul.s", "series.pow.s", "series.inverse.calls",
    "series.inverse.s", "series.equal.s", "series.max_tail_len", "series.max_coeff_bits",
    "cyclo.mul.calls", "cyclo.inverse.calls", "arith.s",
    "numeric.theta_num.calls", "numeric.theta_num.s", "numeric.residue_num.s",
) + tuple(f"numeric.check.N{k}.s" for k in range(1, 7))

_OVERHEAD = "trace.overhead"


def _constructor_key(kind: str, fn):
    """Build-identity key of a constructor call: object and parameters, not the order."""
    sig = inspect.signature(fn)

    def key(args, kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        if kind == "theta":
            return kind, p["ch"].eps, p["ch"].eps_prime, p["deriv_order"]
        if kind == "theta_product":
            return kind, p["ch"].eps, p["ch"].eps_prime
        if kind == "eta":
            return kind, Fraction(p["mult"]), Fraction(p["offset"])
        return kind, tuple((Fraction(m), int(e)) for m, e in p["spec"])

    return key


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []
        self.build_keys: set = set()
        self.build_calls = 0
        self.max_tail_len = 0
        self.max_coeff_bits = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            parent = stack[-1]
            span = [span_name, 0.0, 0.0, parent, run_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                # bookkeeping is a child span of the caller so it never counts as work
                t0 = clock()
                observe(args, kwargs, result)
                spans.append([_OVERHEAD, t0, clock(), parent, run_id])
            return result

        return wrapper

    def _observe_build(self, key):
        def observe(args, kwargs, result):
            self.build_calls += 1
            self.build_keys.add(key(args, kwargs))
        return observe

    def _observe_mul(self, args, kwargs, result):
        if not isinstance(result, FracSeries):
            return
        coeffs = result.coeffs
        self.max_tail_len = max(self.max_tail_len, len(coeffs))
        # abs(num) | den has the bit length of the larger of the two
        widest = max((abs(x.numerator) | x.denominator
                      for c in coeffs.values() for x in c.coeffs()), default=0)
        self.max_coeff_bits = max(self.max_coeff_bits, widest.bit_length())

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, observer) for every traced public function."""
        # the attribute theta5.catalog is the catalog() function, so modules come from importlib
        catalog, series, theta, arith, numeric = (
            importlib.import_module(f"theta5.{m}")
            for m in ("catalog", "series", "theta", "arith", "numeric"))
        out = [
            (catalog, "verify", "catalog.verify", None),
            (catalog, "verify_all", "catalog.verify_all", None),
            (series, "series_equal", "series.equal", None),
            (FracSeries, "__mul__", "series.mul", self._observe_mul),
            (FracSeries, "__pow__", "series.pow", None),
            (FracSeries, "inverse", "series.inverse", None),
            (CycloQ5, "__mul__", "cyclo.mul", None),
            (CycloQ5, "inverse", "cyclo.inverse", None),
            (numeric, "theta_num", "numeric.theta_num", None),
            (numeric, "residue_num", "numeric.residue_num", None),
            (numeric, "run_numeric_check",
             lambda a, k: f"numeric.check.{a[0] if a else k['check_id']}", None),
        ]
        for fname, kind in (("theta_const", "theta"), ("theta_const_product", "theta_product"),
                            ("eta_q", "eta"), ("eta_quotient", "eta_quotient")):
            out.append((theta, fname, f"theta.{fname}",
                        self._observe_build(_constructor_key(kind, getattr(theta, fname)))))
        for fname in ("divisor_sum", "sigma", "partition_p", "pentagonal_numbers"):
            out.append((arith, fname, f"arith.{fname}", None))
        return out

    def install(self) -> None:
        """Wrap every binding of each traced function: module globals and class attributes."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "theta5" or n.startswith("theta5."))]
        for owner, attr, name, observe in self._targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, observe)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def remove(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: self time (span minus its children) per layer, counts, ratios."""
        spans = self.spans
        child = [0.0] * len(spans)  # time covered by direct children
        ovh = [0.0] * len(spans)  # bookkeeping time anywhere below a span
        # a child is always appended after its parent, so a reverse pass sees it first
        for i in range(len(spans) - 1, -1, -1):
            name, t0, t1, parent, _ = spans[i]
            if parent >= 0:
                child[parent] += t1 - t0
                ovh[parent] += ovh[i] + (t1 - t0 if name == _OVERHEAD else 0.0)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        compare_s = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if name == _OVERHEAD:
                continue
            calls[name] += 1
            self_s[name] += t1 - t0 - child[i]
            incl_s[name] += t1 - t0 - ovh[i]
            if name == "series.equal" and parent >= 0 and spans[parent][0] == "catalog.verify":
                compare_s += t1 - t0 - ovh[i]
        out = {
            "catalog.build_s": incl_s["catalog.verify"] - compare_s,
            "catalog.compare_s": compare_s,
            "theta.build_reuse": (len(self.build_keys) / self.build_calls
                                  if self.build_calls else 0.0),
            "series.max_tail_len": self.max_tail_len,
            "series.max_coeff_bits": self.max_coeff_bits,
            "arith.s": sum(v for k, v in self_s.items() if k.startswith("arith.")),
        }
        for name in ("theta.theta_const", "theta.eta_q", "series.mul", "series.inverse",
                     "cyclo.mul", "cyclo.inverse", "numeric.theta_num"):
            out[f"{name}.calls"] = calls[name]
        for name in ("theta.theta_const", "theta.theta_const_product", "theta.eta_q",
                     "theta.eta_quotient", "series.mul", "series.pow", "series.inverse",
                     "series.equal", "numeric.theta_num", "numeric.residue_num"):
            out[f"{name}.s"] = self_s[name]
        for k in range(1, 7):
            # a check's span covers all of its work, so it is reported inclusive
            out[f"numeric.check.N{k}.s"] = incl_s[f"numeric.check.N{k}"]
        return {k: out[k] for k in METRICS}

