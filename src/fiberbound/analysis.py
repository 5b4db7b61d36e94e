"""End-to-end analysis: Jacobian -> F -> syzygies -> fiber discovery -> chain.

The report is deterministic for a fixed (input, seed): fibers are sorted by
target point, JSON keys are sorted, and the random lines of discovery derive
from the given seed (every other randomised step uses a fixed one).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import (CharDividesDegree, FDoesNotDivideMinor,
                     RationalModeUnsupported)
from .fibers import (BoundChainReport, DiscoveryResult, FiberRecord,
                     discover_fibers, verify_bound_chain)
from .jacobian import (EulerSyzygy, JacobianReport, RationalMapInput,
                       euler_syzygy, jacobian_report, line_euler_syzygy)
from .syzygy import IndegResult, constant_relation, indeg_syzygy
# Kept bound here: bench/trace_layers.py wraps analysis.linear_dependence_check.
from .syzygy import linear_dependence_check  # noqa: F401


def json_scalars(F, values) -> list:
    """Field elements for JSON: balanced ints over F_p, strings over Q."""
    if F.char:
        return [F.lift_balanced(c) for c in values]
    return [str(c) for c in values]


def fiber_json(F, names, rec: FiberRecord) -> dict:
    """One `fibers[]` entry; `fiber --json` prints the same record."""
    return {"y": json_scalars(F, rec.y.coords),
            "h": rec.h.to_str(names),
            "degH": rec.deg_h,
            "weightedDeg": rec.weighted_deg,
            "sqfree": [[p.to_str(names), e] for p, e in rec.sqfree]}


class AnalysisReport(NamedTuple):
    inp: RationalMapInput
    jacobian: JacobianReport
    dependent: bool
    relation: tuple | None
    euler: EulerSyzygy | None
    indeg: IndegResult
    discovery: DiscoveryResult | None
    chain: BoundChainReport | None
    warnings: list
    seed: int
    budget: int

    @property
    def chain_ok(self) -> bool:
        return self.chain is None or self.chain.ok

    def exit_code(self) -> int:
        return 0 if self.chain_ok else 2

    def to_json_dict(self) -> dict:
        inp = self.inp
        F = inp.field
        names = inp.varnames
        jr = self.jacobian
        d = {
            "p": F.char or None,
            "m": inp.m,
            "n": inp.n,
            "d": inp.d,
            "vars": list(names),
            "maps": [fi.to_str(names) for fi in inp.f],
            "degF": jr.degF,
            "F": jr.F.to_str(names) if jr.F is not None else None,
            "i3Nonzero": jr.i3_nonzero,
            "iTopNonzero": jr.i_top_nonzero,
            "minorCount": len(jr.minor_nonzero),
            "nonzeroMinorCount": sum(jr.minor_nonzero),
            "dependent": self.dependent,
            "relation": (json_scalars(F, self.relation)
                         if self.relation is not None else None),
            "eulerSyzygy": ({"delta": self.euler.delta,
                             "aDegrees": list(self.euler.a_degrees)}
                            if self.euler is not None else None),
            "indegSyz": self.indeg.indeg,
            "seed": self.seed,
            "budget": self.budget,
            "warnings": list(self.warnings),
        }
        ch = self.chain
        d.update({
            "sumDeg": ch.sum_deg if ch else None,
            "sumWeighted": ch.sum_weighted if ch else None,
            "outerBound": 3 * (inp.d - 1),
            "refinedBound": ch.refined if ch else None,
            "chainOk": self.chain_ok,
            "witnessDivides": ch.witness_divides if ch else None,
        })
        disc = self.discovery
        fibers = []
        if disc is not None:
            fibers = [fiber_json(F, names, r) for r in disc.records]
            d["coverage"] = {
                "covered": disc.covered_degree,
                "squarefreeDegF": disc.squarefree_f_degree,
                "baseLocusSkips": disc.base_locus_skips,
                "nonrationalSkips": disc.nonrational_skips,
            }
        else:
            d["coverage"] = None
        d["fibers"] = fibers
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        inp = self.inp
        names = inp.varnames
        jr = self.jacobian
        out = []
        fld = f"F_{inp.field.char}" if inp.field.char else "Q"
        out.append(f"rational map P^{inp.m} --> P^{inp.n} over {fld}, degree d = {inp.d}")
        for i, fi in enumerate(inp.f):
            out.append(f"  f{i} = {fi.to_str(names)}")
        if jr.F is not None:
            out.append(f"F = gcd of {len(jr.minor_nonzero)} 3-minors = {jr.F.to_str(names)}")
            out.append(f"deg F = {jr.degF}   (outer bound 3(d-1) = {3 * (inp.d - 1)})")
        else:
            out.append("I_3(J(f)) = 0: no nonzero 3-minor, theorem inapplicable")
        out.append(f"I_top nonzero: {jr.i_top_nonzero}   I_3 nonzero: {jr.i3_nonzero}")
        if self.dependent:
            rel = " ".join(str(inp.field.lift_balanced(c)) for c in self.relation)
            out.append(f"generators linearly dependent, relation ({rel})")
        if self.euler is not None:
            out.append(f"Euler syzygy: delta = {self.euler.delta}, "
                       f"sum a_i f_i = 0 verified")
        out.append(f"indeg(Syz) = {self.indeg.indeg}")
        if self.discovery is not None:
            disc = self.discovery
            out.append(f"fibers discovered (seed {self.seed}, budget {self.budget}):")
            for r in disc.records:
                parts = ", ".join(f"({p.to_str(names)})^{e}" for p, e in r.sqfree)
                out.append(f"  y = {r.y.to_str(inp.field)}  h_y = {r.h.to_str(names)}"
                           f"  deg {r.deg_h}  weighted {r.weighted_deg}  [{parts}]")
            out.append(f"coverage: square-free parts of total degree "
                       f"{disc.covered_degree} of deg(squarefree(F)) = "
                       f"{disc.squarefree_f_degree}")
        ch = self.chain
        if ch is not None:
            out.append(f"chain: {ch.sum_deg} <= {ch.sum_weighted} <= {ch.degF} "
                       f"<= {ch.outer}   (sum deg h_y <= weighted sum <= deg F "
                       f"<= 3(d-1))  ok={ch.chain_ok}")
            if ch.refined is not None:
                out.append(f"refined: {ch.sum_deg} <= {ch.degF} <= {ch.refined} "
                           f"<= {ch.outer}   (deg F <= 3(d-1) - indeg(Syz))  "
                           f"ok={ch.refined_ok}")
        for w in self.warnings:
            out.append(f"warning: {w}")
        return "\n".join(out) + "\n"


def run_analysis(inp: RationalMapInput, seed: int = 42,
                 budget: int = 200) -> AnalysisReport:
    warnings: list[str] = []
    jr = jacobian_report(inp)
    indeg = indeg_syzygy(inp)
    # A degree-0 syzygy is a linear relation among the f_i, and indeg_syzygy
    # hands back the verified basis it eliminated there.
    dependent = indeg.indeg == 0
    relation = constant_relation(indeg.basis[0]) if dependent else None
    if dependent:
        warnings.append("generators are linearly dependent over the base field")
    if not jr.i3_nonzero:
        warnings.append("I_3(J(f)) = 0: the degree-bound theorem does not apply")

    euler = None
    if jr.F is not None and inp.m == 2 and inp.n == 3:
        try:
            # A line that proved F = 1 also gives delta and the a_i's degrees.
            euler = (line_euler_syzygy if jr.line is not None
                     else euler_syzygy)(inp, jr)
        except (CharDividesDegree, FDoesNotDivideMinor) as exc:
            warnings.append(f"Euler syzygy unavailable: {exc}")

    discovery = None
    chain = None
    if jr.F is not None:
        try:
            discovery = discover_fibers(inp, jr.F, budget=budget, seed=seed)
        except RationalModeUnsupported:
            warnings.append("fiber discovery skipped: it needs a prime field")
        records = discovery.records if discovery is not None else []
        chain = verify_bound_chain(inp, records, jr.F, indeg=indeg.indeg)
        if not chain.ok:
            warnings.append("degree-bound chain VIOLATED: suspect an unlucky prime")
        if discovery is not None:
            gap = discovery.squarefree_f_degree - discovery.covered_degree
            if gap > 0:
                why = ("contracted to no rational point: discovery stopped on "
                       "a decisive line" if discovery.decisive
                       else "uncontracted or missed")
                warnings.append(
                    f"coverage gap {gap}: square-free factors of F of total degree "
                    f"{gap} belong to no discovered fiber ({why})")
            skipped = ((discovery.base_locus_skips, "in the base locus"),
                       (discovery.nonrational_skips, "with non-rational image"))
            for skips, where in skipped:
                if skips:
                    points = "point" if skips == 1 else "points"
                    warnings.append(f"skipped {skips} closed {points} {where}")

    return AnalysisReport(inp=inp, jacobian=jr, dependent=dependent,
                          relation=relation, euler=euler, indeg=indeg,
                          discovery=discovery, chain=chain, warnings=warnings,
                          seed=seed, budget=budget)
