"""Command-line interface.

Subcommands: analyze, fiber, syzygy, rank-check, selftest.
Exit codes: 0 success, 1 input error, 2 degree-bound violation or fixture
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import fiber_json, run_analysis
from .errors import BadInput, BadPoint, FiberboundError, NoSyzygyFound
from .fibers import FiberRecord, ProjectivePoint, tangent_rank_check
from .fixtures import FIXTURES
from .mapfile import parse_map_file
from .syzygy import graded_syzygy_kernel

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadInput(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_map_file(text)


def _parse_point(text: str, field, expected_len: int) -> ProjectivePoint:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected_len:
        raise BadPoint(f"expected {expected_len} coordinates, got {len(parts)}")
    try:
        coords = [int(p) for p in parts]
    except ValueError as exc:
        raise BadPoint(f"coordinates must be integers: {exc}") from exc
    if not any(field.conv(c) for c in coords):
        raise BadPoint("point must have a nonzero coordinate")
    return ProjectivePoint.create(field, coords)


def cmd_analyze(args) -> int:
    inp = _load(args.file)
    report = run_analysis(inp, seed=args.seed)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code()


def cmd_fiber(args) -> int:
    inp = _load(args.file)
    rec = FiberRecord.at(inp, _parse_point(args.point, inp.field, inp.n + 1))
    names = inp.varnames
    if args.json:
        print(json.dumps(fiber_json(inp.field, names, rec), sort_keys=True,
                         indent=2))
    else:
        print(f"y = {rec.y.to_str(inp.field)}")
        print(f"h_y = {rec.h.to_str(names)}   deg {rec.deg_h}   "
              f"weighted {rec.weighted_deg}")
        for p, e in rec.sqfree:
            print(f"  ({p.to_str(names)})^{e}")
    return EXIT_OK


def cmd_syzygy(args) -> int:
    inp = _load(args.file)
    cap = args.max_degree if args.max_degree is not None else inp.d
    dims = [len(graded_syzygy_kernel(inp, nu)) for nu in range(cap + 1)]
    indeg = next((nu for nu, dim in enumerate(dims) if dim), None)
    if indeg is None and cap >= inp.d:
        raise NoSyzygyFound("no syzygy found up to d despite the Koszul guarantee")
    if args.json:
        print(json.dumps({"dimensions": [{"degree": nu, "dim": d}
                                         for nu, d in enumerate(dims)],
                          "indegSyz": indeg,
                          "searchedUpTo": cap if indeg is None else indeg},
                         sort_keys=True, indent=2))
    else:
        for nu, dim in enumerate(dims):
            print(f"degree {nu}: kernel dimension {dim}")
        print(f"indeg(Syz) = {indeg}" if indeg is not None
              else f"indeg(Syz) > {cap} (searched up to degree {cap})")
    return EXIT_OK


def cmd_rank_check(args) -> int:
    inp = _load(args.file)
    q = _parse_point(args.point, inp.field, inp.m + 1)
    r = tangent_rank_check(inp, q)
    print(f"rank J(q) = {r.rank_j}   rank dphi_q = {r.rank_dphi}   "
          f"consistent = {r.consistent}")
    return EXIT_OK if r.consistent else EXIT_VIOLATION


def run_selftest(fixtures=FIXTURES, out=None, as_json: bool = False) -> int:
    """Run the embedded fixtures through `run_analysis` with its defaults
    against their pinned expectations, writing to `out` (sys.stdout at the
    time of the call when None)."""
    if out is None:
        out = sys.stdout
    results = []
    ok_all = True
    for fx in fixtures:
        inp = fx.build()
        report = run_analysis(inp)
        euler_ok = (report.euler is not None
                    if (inp.m, inp.n) == (2, 3) and report.jacobian.F is not None
                    else True)
        got = {
            "degF": report.jacobian.degF,
            "sumDeg": report.chain.sum_deg if report.chain else None,
            "sumWeighted": report.chain.sum_weighted if report.chain else None,
            "indeg": report.indeg.indeg,
            "dependent": report.dependent,
            "chainOk": report.chain_ok,
            "eulerOk": euler_ok,
            "witnessDivides": report.chain.witness_divides if report.chain
            else True,
        }
        want = {"degF": fx.deg_f, "sumDeg": fx.sum_deg,
                "sumWeighted": fx.sum_weighted, "indeg": fx.indeg,
                "dependent": fx.dependent, "chainOk": True,
                "eulerOk": True, "witnessDivides": True}
        mismatches = [k for k in want if got[k] != want[k]]
        ok_all = ok_all and not mismatches
        results.append({"fixture": fx.name, "ok": not mismatches,
                        "got": got, "want": want, "mismatches": mismatches})
    if as_json:
        out.write(json.dumps({"fixtures": results, "ok": ok_all},
                             sort_keys=True, indent=2) + "\n")
    else:
        header = (f"{'fixture':<16}{'degF':>6}{'sumDeg':>8}{'sumW':>6}"
                  f"{'indeg':>7}  status")
        out.write(header + "\n")
        for r in results:
            g = r["got"]
            status = "ok" if r["ok"] else "FAIL " + ",".join(
                f"{k}={g[k]} want {r['want'][k]}" for k in r["mismatches"])
            out.write(f"{r['fixture']:<16}{g['degF']:>6}{g['sumDeg']:>8}"
                      f"{g['sumWeighted']:>6}{g['indeg']:>7}  {status}\n")
        out.write(("all fixtures ok" if ok_all else "FIXTURE MISMATCH") + "\n")
    return EXIT_OK if ok_all else EXIT_VIOLATION


def cmd_selftest(args) -> int:
    return run_selftest(as_json=args.json)


class _Parser(argparse.ArgumentParser):
    # argparse would print a usage block and exit with 2, which here means a
    # degree-bound violation; subparsers are built from this class too.
    def error(self, message):
        raise BadInput(message)


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fiberbound",
        description="degree bounds for the fibers of rational maps "
                    "via Jacobian minor GCDs")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full pipeline on a map file")
    pa.add_argument("file")
    pa.add_argument("--seed", type=int, default=42)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("fiber", help="fiber equation at a target point")
    pf.add_argument("file")
    pf.add_argument("--point", required=True,
                    help="comma-separated target coordinates p0,...,pn")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_fiber)

    ps = sub.add_parser("syzygy", help="graded syzygy kernel dimensions")
    ps.add_argument("file")
    ps.add_argument("--max-degree", type=_nonnegative, default=None)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_syzygy)

    pr = sub.add_parser("rank-check", help="rank J(q) vs rank of the tangent map")
    pr.add_argument("file")
    pr.add_argument("--point", required=True,
                    help="comma-separated source coordinates q0,...,qm")
    pr.set_defaults(func=cmd_rank_check)

    pt = sub.add_parser("selftest", help="run the embedded paper fixtures")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_selftest)
    return ap


def _join_point(argv: list) -> list:
    """Write `--point V` as `--point=V`: argparse takes a V such as
    "-1,0,0,1" for an option, while `--point` always needs a value."""
    out = []
    args = iter(argv)
    for arg in args:
        if arg == "--point":
            value = next(args, None)
            if value is not None:
                arg = f"--point={value}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_point(argv))
        return args.func(args)
    except FiberboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
