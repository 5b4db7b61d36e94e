"""`analyze --json` output pinned byte for byte, per map file and field.

The files under tests/golden/ hold the exact stdout of
`fiberbound analyze --json --seed 42` on the six maps/ files over
F_p and on the same files rewritten to `field rational`.  Any change to a
reported value, a key, the ordering or the formatting shows up here.  The
key list of README's JSON schema section must name exactly the keys that
`to_json_dict` emits: top level, `coverage` and `fibers[]`.
"""

import pathlib
import re

import pytest

from fiberbound import PrimeField, RationalField
from fiberbound.analysis import run_analysis
from fiberbound.cli import main
from fiberbound.fixtures import make_example2

ROOT = pathlib.Path(__file__).resolve().parent.parent
MAPS = sorted(p.stem for p in (ROOT / "maps").glob("*.map"))
GOLDEN = ROOT / "tests" / "golden"


def _rational(text: str) -> str:
    return "".join("field rational\n" if ln.startswith("field") else ln
                   for ln in text.splitlines(True))


@pytest.mark.parametrize("rational", [False, True], ids=["fp", "q"])
@pytest.mark.parametrize("name", MAPS)
def test_analyze_json_matches_golden(name, rational, tmp_path, capsys):
    path = ROOT / "maps" / f"{name}.map"
    if rational:
        path = tmp_path / f"{name}.map"
        path.write_text(_rational((ROOT / "maps" / f"{name}.map").read_text()))
    code = main(["analyze", "--json", "--seed", "42", str(path)])
    out = capsys.readouterr().out
    suffix = "_rational" if rational else ""
    assert code == 0
    assert out == (GOLDEN / f"{name}{suffix}.json").read_text()


def _readme_json_keys() -> set:
    """The backticked keys of README's `### JSON schema (analyze)` list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### JSON schema (analyze)\n", 1)[1]
    keys = section[section.index("Keys:"):
                   section.index("\nAll polynomial strings")]
    return set(re.findall(r"`([A-Za-z]\w*)(?:\[\])?`", keys)) - {"null"}


def test_readme_json_keys_are_the_emitted_keys():
    emitted = set()
    for field in (PrimeField(), RationalField()):
        d = run_analysis(make_example2(field)).to_json_dict()
        emitted |= set(d) | set(d["coverage"] or ())
        for record in d["fibers"]:
            emitted |= set(record)
    assert _readme_json_keys() == emitted
