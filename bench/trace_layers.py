"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each layer's public functions at the names their
callers look them up under (module globals such as `fiberbound.fibers.u_roots`,
and `MvPoly` methods), so no file of the package changes.  Spans nest on one
stack: a span's self time is its duration minus the time its child spans
cover, and each span is charged to the span that called it.  Counters are
taken from call arguments and return values, so they repeat exactly for the
same inputs and seed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# Caller span -> the metric that reports the gcd self time charged to it.
GCD_CALLERS = {"mapfile.parse": "gcd.under_parse_s",
               "jacobian.gcd_of_minors": "gcd.under_gcd_of_minors_s",
               "fibers.fiber_equation": "gcd.under_fiber_equation_s",
               "gcd.squarefree": "gcd.under_squarefree_s"}


def _degree(coeffs: list) -> int:
    k = len(coeffs) - 1
    while k >= 0 and not coeffs[k]:
        k -= 1
    return k


class Tracer:
    def __init__(self):
        self._stack = [["", 0.0]]                 # [span name, child time]
        self.self_s: dict = defaultdict(float)    # (name, caller) -> seconds
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, hook=None):
        """fn inside a span; hook(args, result) updates counters untimed."""
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, \
            time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[name, caller[0]] += t1 - t0 - frame[1]
                calls[name] += 1
            if hook is not None:
                hook(args, result)
            # The hook's cost is tracing overhead: keep it out of the caller.
            caller[1] += clock() - t0
            return result

        return traced

    def install(self, fb):
        """Wrap the layers of package `fb`; returns traced (parse, run)."""
        count = self.counts
        jac, fib, syz, gcd, ana = fb.jacobian, fb.fibers, fb.syzygy, fb.gcd, \
            fb.analysis

        def patch(module, attr, name, hook=None):
            setattr(module, attr, self.wrap(name, getattr(module, attr), hook))

        def on_minors(args, result):
            if args[1] == 3:
                count["nonzero_minors"] += sum(1 for m in result
                                               if not m.poly.is_zero())

        def on_gcd(args, result):
            count["gcd_trivial"] += result.is_constant()

        def on_kernel(args, result):
            rows, ncols = args[1], args[2]
            count["linalg_cells"] += (ncols - len(result)) * len(rows) * ncols

        def on_rank(args, result):
            rows = args[1]
            count["linalg_cells"] += result * len(rows) * (len(rows[0]) if rows else 0)

        def on_roots(args, result):
            count["roots_degree_sum"] += _degree(args[1])
            count["roots_found"] += len(result)

        def on_discover(args, result):
            if result.squarefree_f_degree:
                count["lines"] += result.budget
            count["degenerate_lines"] += result.degenerate_lines
            count["records"] += len(result.records)
            count["covered_degree"] += result.covered_degree
            count["squarefree_degree"] += result.squarefree_f_degree

        patch(jac, "minors", "jacobian.minors", on_minors)
        patch(jac, "gcd_of_minors", "jacobian.gcd_of_minors")
        patch(jac, "generic_finiteness_check", "jacobian.finiteness")
        patch(ana, "linear_dependence_check", "jacobian.dependence")
        patch(ana, "euler_syzygy", "jacobian.euler")
        for module in (jac, fib, gcd):
            patch(module, "gcd_multivariate", "gcd", on_gcd)
        patch(fib, "squarefree_part", "gcd.squarefree")
        patch(fib, "squarefree_decompose", "gcd.squarefree")
        patch(ana, "indeg_syzygy", "syzygy.indeg")
        patch(syz, "graded_syzygy_kernel", "syzygy.kernel")
        patch(syz, "kernel_basis", "linalg", on_kernel)
        patch(jac, "kernel_basis", "linalg", on_kernel)
        patch(jac, "rank", "linalg", on_rank)
        patch(fib, "u_roots", "univariate.roots", on_roots)
        patch(fib, "irreducible_quadratics", "univariate.quadratics")
        patch(ana, "discover_fibers", "fibers.discover", on_discover)
        patch(fib, "fiber_equation", "fibers.fiber_equation")
        patch(ana, "verify_bound_chain", "fibers.chain")
        poly = fb.MvPoly
        patch(poly, "evaluate", "poly.evaluate")
        patch(poly, "on_line", "poly.on_line")
        poly.__mul__ = poly.__rmul__ = self.wrap("poly.mul", poly.__mul__)
        patch(fb.AnalysisReport, "to_json", "analysis.to_json")
        return (self.wrap("mapfile.parse", fb.mapfile.parse_map_file),
                self.wrap("analysis.run", fb.analysis.run_analysis))

    def totals(self) -> dict:
        """Per-layer metrics of everything traced so far, by metric name."""
        own: dict = defaultdict(float)
        under = {metric: 0.0 for metric in GCD_CALLERS.values()}
        for (name, caller), s in self.self_s.items():
            own[name] += s
            if name == "gcd" and caller in GCD_CALLERS:
                under[GCD_CALLERS[caller]] += s
        calls, count = self.calls, self.counts

        def ratio(num, base):
            return num / base if base else 0.0

        out = {
            "mapfile.parse_s": own["mapfile.parse"],
            "analysis.run_s": own["analysis.run"],
            "analysis.to_json_s": own["analysis.to_json"],
            "jacobian.minors_s": own["jacobian.minors"],
            "jacobian.nonzero_minors": count["nonzero_minors"],
            "jacobian.euler_s": own["jacobian.euler"],
            "jacobian.finiteness_s": own["jacobian.finiteness"],
            "jacobian.dependence_s": own["jacobian.dependence"],
            "jacobian.gcd_of_minors_s": own["jacobian.gcd_of_minors"],
            "gcd.calls": calls["gcd"],
            "gcd.self_s": own["gcd"],
            "gcd.squarefree_s": own["gcd.squarefree"],
            "gcd.trivial_calls": count["gcd_trivial"],
            "gcd.trivial_ratio": ratio(count["gcd_trivial"], calls["gcd"]),
            **under,
            "syzygy.indeg_s": own["syzygy.indeg"],
            "syzygy.kernel_calls": calls["syzygy.kernel"],
            "syzygy.kernel_self_s": own["syzygy.kernel"],
            "linalg.calls": calls["linalg"],
            "linalg.self_s": own["linalg"],
            "linalg.cells": count["linalg_cells"],
            "univariate.roots_calls": calls["univariate.roots"],
            "univariate.roots_s": own["univariate.roots"],
            "univariate.roots_degree_sum": count["roots_degree_sum"],
            "univariate.roots_found": count["roots_found"],
            "univariate.quadratics_calls": calls["univariate.quadratics"],
            "univariate.quadratics_s": own["univariate.quadratics"],
            "fibers.discover_s": own["fibers.discover"],
            "fibers.lines": count["lines"],
            "fibers.degenerate_lines": count["degenerate_lines"],
            "fibers.fiber_equation_calls": calls["fibers.fiber_equation"],
            "fibers.fiber_equation_s": own["fibers.fiber_equation"],
            "fibers.records": count["records"],
            "fibers.useful_ratio": ratio(count["records"],
                                         calls["fibers.fiber_equation"]),
            "fibers.covered_degree": count["covered_degree"],
            "fibers.squarefree_degree": count["squarefree_degree"],
            "fibers.coverage_ratio": ratio(count["covered_degree"],
                                           count["squarefree_degree"]),
            "fibers.chain_s": own["fibers.chain"],
            "trace.spanned_s": sum(own.values()),
        }
        for name in ("evaluate", "on_line", "mul"):
            out[f"poly.{name}_calls"] = calls[f"poly.{name}"]
            out[f"poly.{name}_s"] = own[f"poly.{name}"]
        return out
