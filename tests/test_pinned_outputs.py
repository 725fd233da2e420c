"""Pinned outputs: every command of the table exits with its code and prints
its stdout, byte for byte.

A row's stdout is the literal text when it ends in a newline, else the
sha256 of the text.  `grasspace` rows run `cli.main` in this process on
freshly built spaces, so no space cached by an earlier test is read; a
`gen ... | check` row hands gen's stdout to check through a file under the
test's temporary directory.  `python3` rows run a script in a child
interpreter, so each run has its own hash seed.

Three runs too slow for these tests (Suites 1-2 on PG(3,13) and Suite 2 on
PG(3,16)) are pinned the same way, by exit code and stdout sha256, in the
last step of `.github/workflows/tests.yml`.
"""

import hashlib
import math
import pathlib
import subprocess
import sys

import pytest

from grasspace import cli
from grasspace.projspace import build_space

ROOT = pathlib.Path(__file__).resolve().parent.parent

THM1_PASS = "THM1.ab PASS\nTHM1.c PASS\nTHM1.d PASS\n"
THM2_PASS = (
    "THM2.a PASS\nTHM2.b PASS\nTHM2.c PASS\nTHM2.d PASS\nTHM2.equivalence PASS\n"
)
INTO_TARGET = (
    "BIJECTIVE yes\nPRESERVES-INTERSECTIONS yes\nPRESERVES-SKEW yes\n"
    "KAPPA InducedIntoTarget Collineation\n"
)
INTO_DUAL = (
    "BIJECTIVE yes\nPRESERVES-INTERSECTIONS yes\nPRESERVES-SKEW yes\n"
    "KAPPA InducedIntoDual Collineation\n"
)
NOT_INTERSECTION_PRESERVING = (
    "BIJECTIVE yes\nPRESERVES-INTERSECTIONS no\nPRESERVES-SKEW no\nKAPPA - -\n"
)
# in a plane every two lines meet, so a swap of two lines preserves both
# relations and no point map induces it
PLANE_SWAP = (
    "BIJECTIVE yes\nPRESERVES-INTERSECTIONS yes\nPRESERVES-SKEW yes\nKAPPA Mixed -\n"
)
VERIFICATION = "scripts/run_verification.py --samples-q2 2 --samples-q3 2 --shadow 20"
VERIFICATION_SHA256 = "1764668881c107311d249386d6b3ad7d7aaa46088f71e35960a854527f57247b"

ROWS = [
    (f"python3 {VERIFICATION}", 0, VERIFICATION_SHA256),
    (f"python3 {VERIFICATION}", 0, VERIFICATION_SHA256),
    (f"python3 -O {VERIFICATION}", 0, VERIFICATION_SHA256),
    *(
        (f"grasspace gen -n 3 -q {q} --kind {kind} | grasspace check", code, stdout)
        for q in (4, 5)
        for kind, code, stdout in (
            ("collineation", 0, INTO_TARGET),
            ("duality", 0, INTO_DUAL),
            ("perturbed", 1, NOT_INTERSECTION_PRESERVING),
        )
    ),
    *(
        (f"grasspace gen {space} --kind {kind} | grasspace check", code, stdout)
        for space in ("-n 4 -q 3", "-n 5 -q 2")
        for kind, code, stdout in (
            ("collineation", 0, INTO_TARGET),
            ("perturbed", 1, NOT_INTERSECTION_PRESERVING),
        )
    ),
    (
        "grasspace gen -n 5 -q 2 --kind perturbed --seed 7",
        0,
        "2a71a895c5f0661d7813b900df8474cefa5bf1e2b427e99aa1ed01d5febc2e19",
    ),
    (
        "grasspace gen -n 3 -q 7 --kind collineation --seed 7",
        0,
        "a316d3a802bfe62e3ea972bba7718881505c2f819d9a8c88579a0006219bab05",
    ),
    *(
        (f"grasspace verify --suite {suite} {space}", 0, stdout)
        for space in (
            "-n 3 -q 4 --samples 3",
            "-n 4 -q 4 --samples 1",
            "-n 3 -q 7 --samples 1",
            "-n 3 -q 8 --samples 1",
            "-n 2 -q 4 --samples 3",
            "-n 5 -q 2 --samples 2",
            "-n 4 -q 2 --samples 2",
            "-n 4 -q 3 --samples 1",
        )
        for suite, stdout in (("thm1", THM1_PASS), ("thm2", THM2_PASS))
    ),
    (
        "grasspace stats -n 3 -q 7",
        0,
        "points 400\nlines 2850\nstar 57\npencil 8\ndegree 448\n",
    ),
    (
        "grasspace stats -n 4 -q 4",
        0,
        "points 341\nlines 5797\nstar 85\npencil 5\ndegree 420\n",
    ),
    *(
        row
        for q in (9, 11, 13, 16, 25, 27)
        for row in (
            (f"grasspace gen -n 2 -q {q} --kind collineation | grasspace check", 0, INTO_TARGET),
            (f"grasspace gen -n 2 -q {q} --kind perturbed | grasspace check", 1, PLANE_SWAP),
            (f"grasspace verify --suite thm1 -n 2 -q {q} --samples 1", 0, THM1_PASS),
            (f"grasspace verify --suite thm2 -n 2 -q {q} --samples 1", 0, THM2_PASS),
        )
    ),
    ("grasspace verify --suite thm2 -n 3 -q 9 --samples 1", 0, THM2_PASS),
    (
        "grasspace graph -n 3 -q 4",
        0,
        "a290d1300248386b021cb365f97c9bf079ea2d3c29754e8027d19b7430b0d3ed",
    ),
    (
        "grasspace graph -n 4 -q 3",
        0,
        "b891c28bb7ad41cc281b8d5b1b03f3b5c9154ada79522182640bf1a134f8f6c2",
    ),
    (
        "grasspace graph -n 3 -q 5",
        0,
        "c618afc92017d119778598fd945df1b16af49b77bad23dc587409bf6a9392a80",
    ),
    (
        "grasspace gen -n 3 -q 8 --kind duality --seed 3",
        0,
        "dd3997c74720aee8fbc77f3bdeb7e91587895dcd43d2fee0e4bfd94eddb11934",
    ),
    ("grasspace aut -n 3 -q 4", 0, "3948134400\n"),
    # a plane's line graph is complete, so every permutation of its 57 lines
    ("grasspace aut -n 2 -q 7", 0, f"{math.factorial(57)}\n"),
    # 183!, every permutation of PG(2,13)'s 183 lines
    (
        "grasspace aut -n 2 -q 13",
        0,
        "4320faa98c389fd18e8bd3a7e7363561e0eb0b2effb6155f2ea58e3005df5214",
    ),
    ("grasspace aut -n 5 -q 2", 0, "20158709760\n"),
    (
        "python3 scripts/grassmann_census.py --cases 2,2 3,2 3,3 4,2 3,4 5,2",
        0,
        "41f1e2521ebefda75f9efc06da74a1b16001a53ffba01435a161be5dc09ede3d",
    ),
    (
        "grasspace verify --suite chow -n 3 -q 3",
        0,
        "graph_order 24261120\n"
        "group_order 24261120\n"
        "CHOW.graph_order PASS 24261120\n"
        "CHOW.group_order PASS 24261120\n"
        "CHOW.collineations_distinct PASS 12130560 of 12130560\n"
        "CHOW.coset_disjoint PASS\n"
        "CHOW.order_match PASS 24261120 vs 24261120\n",
    ),
    (
        "grasspace verify --suite chow -n 3 -q 4",
        0,
        "graph_order 3948134400\n"
        "group_order 3948134400\n"
        "CHOW.graph_order PASS 3948134400\n"
        "CHOW.group_order PASS 3948134400\n"
        "CHOW.collineations_distinct PASS 1974067200 of 1974067200\n"
        "CHOW.coset_disjoint PASS\n"
        "CHOW.order_match PASS 3948134400 vs 3948134400\n",
    ),
]


def _grasspace(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _run(command, tmp_path, capsys):
    """Exit code and stdout of a table command."""
    first, *piped = command.split(" | ")
    program, *argv = first.split()
    if program == "python3":
        run = subprocess.run(
            [sys.executable, *argv], capture_output=True, cwd=ROOT, timeout=120
        )
        return run.returncode, run.stdout.decode("utf-8")
    code, out = _grasspace(argv, capsys)
    if piped == ["grasspace check"]:
        assert code == cli.EXIT_OK, f"gen exited {code}"
        path = tmp_path / "instance.grassmap"
        path.write_text(out, encoding="utf-8", newline="")
        code, out = _grasspace(["check", str(path)], capsys)
    return code, out


@pytest.mark.parametrize("command,code,stdout", ROWS, ids=[row[0] for row in ROWS])
def test_pinned_output(command, code, stdout, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_space", build_space.__wrapped__)
    got_code, out = _run(command, tmp_path, capsys)
    assert got_code == code
    if stdout.endswith("\n"):
        assert out == stdout
    else:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout
