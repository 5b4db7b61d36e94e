"""CLI commands: outputs, exit codes, selftest and its negative control."""

import contextlib
import io
import json
import pathlib

import pytest

from fiberbound.cli import main, run_selftest
from fiberbound.fixtures import FIXTURES, Fixture, make_example2
from fiberbound.jacobian import RationalMapInput
from fiberbound.poly import MvPoly

MAPS = pathlib.Path(__file__).resolve().parent.parent / "maps"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_human_output(capsys):
    code, out, _ = run_cli(["analyze", str(MAPS / "family_d4.map"),
                            "--seed", "42", "--budget", "80"], capsys)
    assert code == 0
    assert "deg F = 6" in out
    assert "chain: 6 <= 6 <= 6 <= 9" in out


def test_analyze_json_fields(capsys):
    code, out, _ = run_cli(["analyze", str(MAPS / "example2.map"),
                            "--seed", "42", "--budget", "120", "--json"],
                           capsys)
    assert code == 0
    d = json.loads(out)
    assert d["degF"] == 11 and d["indegSyz"] == 2
    assert d["sumDeg"] == 8 and d["sumWeighted"] == 9
    assert d["outerBound"] == 15 and d["refinedBound"] == 13
    assert d["chainOk"] is True and d["witnessDivides"] is True
    assert len(d["fibers"]) == 4
    assert d["seed"] == 42


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(["analyze", "no_such.map"], capsys)
    assert code == 1 and "error" in err


def test_analyze_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("vars X0 X1\nf0 X0^2\nf1 X0*X1\n")
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 1 and "common factor" in err


def test_fiber_command(capsys):
    code, out, _ = run_cli(["fiber", str(MAPS / "family_d4.map"),
                            "--point", "0,0,1,1"], capsys)
    assert code == 0
    assert "h_y = X0 - X1" in out


def test_fiber_command_json(capsys):
    code, out, _ = run_cli(["fiber", str(MAPS / "example2.map"),
                            "--point", "1,0,-1,0", "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["h"] == "X0^2 + X2^2" and d["degH"] == 2


@pytest.mark.parametrize("name", ["example2", "family_d4"])
def test_fiber_json_is_the_analyze_record(name, capsys):
    path = str(MAPS / f"{name}.map")
    code, out, _ = run_cli(["analyze", path, "--json"], capsys)
    records = json.loads(out)["fibers"]
    assert code == 0 and records
    for rec in records:
        point = ",".join(str(c) for c in rec["y"])
        code, out, _ = run_cli(["fiber", path, "--json", "--point", point],
                               capsys)
        assert code == 0
        assert json.loads(out) == rec


def test_fiber_bad_point(capsys):
    code, _, err = run_cli(["fiber", str(MAPS / "example2.map"),
                            "--point", "1,2"], capsys)
    assert code == 1 and "4 coordinates" in err


def test_syzygy_command(capsys):
    code, out, _ = run_cli(["syzygy", str(MAPS / "example2.map"),
                            "--max-degree", "2"], capsys)
    assert code == 0
    assert "indeg(Syz) = 2" in out


def test_rank_check_command(capsys):
    code, out, _ = run_cli(["rank-check", str(MAPS / "example2.map"),
                            "--point", "1,2,3"], capsys)
    assert code == 0
    assert "consistent = True" in out


def test_selftest_passes():
    buf = io.StringIO()
    code = run_selftest(out=buf, budget=80)
    assert code == 0
    assert "all fixtures ok" in buf.getvalue()


def test_selftest_output_follows_the_current_stdout():
    # The default stream is looked up when selftest runs, so a redirect made
    # after import captures the table.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["selftest", "--budget", "80"])
    assert code == 0
    assert "all fixtures ok" in buf.getvalue()


def test_selftest_json():
    buf = io.StringIO()
    code = run_selftest(out=buf, budget=80, as_json=True)
    assert code == 0
    d = json.loads(buf.getvalue())
    assert d["ok"] is True and len(d["fixtures"]) == len(FIXTURES)


def _corrupted_example2():
    """Example 2 with one coefficient of f3 perturbed."""
    base = make_example2()
    F = base.field
    x0 = MvPoly.variable(F, 3, 0)
    x1 = MvPoly.variable(F, 3, 1)
    f3 = base.f[3] + x0 ** 4 * x1 ** 2   # coefficient 1 -> 2
    return RationalMapInput.create(F, (*base.f[:3], f3))


def test_selftest_detects_corrupted_fixture():
    bad = Fixture("example2_corrupt", _corrupted_example2, deg_f=11,
                  sum_deg=8, sum_weighted=9, indeg=2)
    buf = io.StringIO()
    code = run_selftest(fixtures=[bad], out=buf, budget=60)
    assert code != 0
    text = buf.getvalue()
    assert "FAIL" in text and "degF" in text


def test_second_prime_never_changes_degF_on_fixtures(capsys):
    for name in ("example2.map", "family_d5.map", "cube_dependent.map"):
        code, out, _ = run_cli(["analyze", str(MAPS / name), "--budget", "40",
                                "--second-prime", "--json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["secondPrime"]["degF"] == d["degF"], name
        assert not any("unlucky" in w for w in d["warnings"]), name


def test_dependent_fixture_warning(capsys):
    code, out, _ = run_cli(["analyze", str(MAPS / "cube_dependent.map"),
                            "--budget", "40"], capsys)
    assert code == 0
    assert "linearly dependent" in out
    assert "deg F = 6" in out


def test_analyze_json_dependent_over_rationals(tmp_path, capsys):
    text = (MAPS / "cube_dependent.map").read_text()
    qmap = tmp_path / "cube_dependent_q.map"
    qmap.write_text("".join("field rational\n" if ln.startswith("field") else ln
                            for ln in text.splitlines(True)))
    code, out, _ = run_cli(["analyze", "--json", str(qmap)], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["dependent"] is True and d["p"] is None
    assert all(isinstance(c, str) for c in d["relation"])


def test_fiber_json_over_rationals(tmp_path, capsys):
    text = (MAPS / "example2.map").read_text()
    qmap = tmp_path / "example2_q.map"
    qmap.write_text("".join("field rational\n" if ln.startswith("field") else ln
                            for ln in text.splitlines(True)))
    code, out, _ = run_cli(["fiber", str(qmap), "--point", "2,0,-1,0",
                            "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["y"] == ["1", "0", "-1/2", "0"]


@pytest.mark.parametrize("case", ["max-degree", "directory", "not-utf8",
                                  "budget-analyze", "budget-selftest",
                                  "superscript", "long-literal", "nesting",
                                  "long-modulus", "signed-modulus"])
def test_input_errors_take_the_input_error_path(case, tmp_path, capsys):
    latin1 = tmp_path / "latin1.map"
    latin1.write_bytes("# caf\u00e9\n".encode("latin-1")
                       + (MAPS / "family_d4.map").read_bytes())
    for name, f0 in (("superscript", "X0^\u00b2"),
                     ("long-literal", "9" * 4400 + "*X0^2"),
                     ("nesting", "(" * 400 + "X0^2" + ")" * 400)):
        (tmp_path / f"{name}.map").write_text(
            f"vars X0 X1 X2\nf0 {f0}\nf1 X1^2\nf2 X2^2\n", encoding="utf-8")
    for name, modulus in (("long-modulus", "7" * 4400),
                          ("signed-modulus", "+13")):
        (tmp_path / f"{name}.map").write_text(
            f"field p={modulus}\nvars X0 X1 X2\nf0 X0^2\nf1 X1^2\n"
            "f2 X2^2\n", encoding="utf-8")
    argv, message = {
        "max-degree": (["syzygy", str(MAPS / "example2.map"),
                        "--max-degree", "-1"], "--max-degree"),
        "directory": (["analyze", str(tmp_path)], "directory"),
        "not-utf8": (["analyze", str(latin1)], "UTF-8"),
        "budget-analyze": (["analyze", str(MAPS / "family_d4.map"), "--json",
                            "--budget", "-3"], "--budget"),
        "budget-selftest": (["selftest", "--budget", "-3"], "--budget"),
        "superscript": (["analyze", str(tmp_path / "superscript.map")],
                        "unexpected character"),
        "long-literal": (["analyze", str(tmp_path / "long-literal.map")],
                         "too long"),
        "nesting": (["analyze", str(tmp_path / "nesting.map")],
                    "nested too deeply"),
        "long-modulus": (["analyze", str(tmp_path / "long-modulus.map")],
                         "field modulus is too long"),
        "signed-modulus": (["analyze", str(tmp_path / "signed-modulus.map")],
                           "field modulus must be an integer"),
    }[case]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_syzygy_command_builds_each_kernel_once(monkeypatch, capsys):
    import fiberbound.cli as cli_mod
    import fiberbound.syzygy as syz_mod
    calls = []
    real = syz_mod.graded_syzygy_kernel

    def counting(inp, nu):
        calls.append(nu)
        return real(inp, nu)

    monkeypatch.setattr(syz_mod, "graded_syzygy_kernel", counting)
    monkeypatch.setattr(cli_mod, "graded_syzygy_kernel", counting)
    cap = 3
    code, out, _ = run_cli(["syzygy", str(MAPS / "example2.map"),
                            "--max-degree", str(cap), "--json"], capsys)
    assert code == 0
    assert sorted(calls) == list(range(cap + 1))
    d = json.loads(out)
    assert d["indegSyz"] == 2 and d["searchedUpTo"] == 2
    assert [row["dim"] for row in d["dimensions"]][:2] == [0, 0]


def test_syzygy_failed_reverification_is_typed(monkeypatch, capsys):
    import fiberbound.syzygy as syz_mod
    from fiberbound import FiberboundError, NoSyzygyFound, SyzygyCheckFailed

    def not_a_kernel(F, rows, ncols):
        return [[F.one] + [F.zero] * (ncols - 1)]

    monkeypatch.setattr(syz_mod, "kernel_basis", not_a_kernel)
    with pytest.raises(SyzygyCheckFailed) as info:
        syz_mod.graded_syzygy_kernel(make_example2(), 0)
    assert isinstance(info.value, FiberboundError)
    code, _, err = run_cli(["syzygy", str(MAPS / "example2.map"),
                            "--max-degree", "1"], capsys)
    assert code == 1 and "re-verification" in err
    monkeypatch.setattr(syz_mod, "kernel_basis", lambda F, rows, ncols: [])
    with pytest.raises(NoSyzygyFound):
        syz_mod.indeg_syzygy(make_example2())


@pytest.mark.parametrize("command,point", [("fiber", "-1,0,1,0"),
                                           ("rank-check", "-1,2,3")])
def test_point_with_negative_first_coordinate(command, point, capsys):
    # "--point -1,..." must read like "--point=-1,...", not as an option
    path = str(MAPS / "example2.map")
    spaced = run_cli([command, path, "--point", point], capsys)
    joined = run_cli([command, path, f"--point={point}"], capsys)
    assert spaced == joined
    code, out, err = spaced
    assert code == 0 and err == ""
    if command == "fiber":
        assert "h_y = X0^2 + X2^2" in out     # the point (1 : 0 : -1 : 0)
    else:
        assert "consistent = True" in out


@pytest.mark.parametrize("p", [5, 7, 11])
def test_small_prime_skips_discovery_with_a_warning(p, tmp_path, capsys):
    # p <= deg F = 11 rules out the square-free step discovery needs, but F,
    # indeg(Syz) and the outer chain still hold
    text = (MAPS / "example2.map").read_text()
    small = tmp_path / f"example2_p{p}.map"
    small.write_text("".join(f"field p={p}\n" if ln.startswith("field") else ln
                             for ln in text.splitlines(True)))
    code, out, _ = run_cli(["analyze", "--json", str(small)], capsys)
    assert code == 0
    d = json.loads(out)
    assert (d["p"], d["degF"], d["indegSyz"]) == (p, 11, 2)
    assert (d["sumDeg"], d["sumWeighted"], d["refinedBound"]) == (0, 0, 13)
    assert d["chainOk"] is True and d["coverage"] is None and d["fibers"] == []
    assert any(w.startswith("fiber discovery skipped: characteristic "
                            f"{p} <= degree")
               for w in d["warnings"])


def test_cremona_map_exits_zero_without_a_refined_bound(tmp_path, capsys):
    # P^2 --> P^2 has a square Jacobian, so deg F = 3(d-1) and the refined
    # bound, proved for P^2 --> P^n with n >= 3 only, is not checked
    path = tmp_path / "cremona.map"
    path.write_text("vars X0 X1 X2\nf0 X1*X2\nf1 X0*X2\nf2 X0*X1\n")
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    assert "chain: 3 <= 3 <= 3 <= 3" in out and "ok=True" in out
    assert "refined:" not in out and "VIOLATED" not in out
    code, out, _ = run_cli(["analyze", "--json", str(path)], capsys)
    d = json.loads(out)
    assert code == 0 and d["indegSyz"] == 1 and d["refinedBound"] is None
    assert d["chainOk"] is True and d["warnings"] == []
