import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, timeout=120
    )


def test_verification_script_stdout_is_the_same_bytes_on_every_run():
    counts = ("--samples-q2", "1", "--samples-q3", "1", "--shadow", "5")
    runs = [_script("run_verification.py", *counts) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout.endswith(b"\n== ALL SECTIONS PASS\n")
        assert run.stderr.startswith(b"wall time ")
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize(
    "seed, shadow, code",
    [("-1", "1", 2), (str(2**64 - 1), "1", 0), (str(2**64), "1", 2), (str(2**64 - 1), "2", 2)],
)
def test_verification_script_keeps_its_seeds_in_64_bits(seed, shadow, code):
    # The seeds run from --seed to --seed + max(counts) - 1.
    counts = ("--samples-q2", "1", "--samples-q3", "1", "--shadow", shadow)
    run = _script("run_verification.py", "--seed", seed, *counts)
    assert run.returncode == code, run.stderr.decode()
    if code == 2:
        assert run.stdout == b""
        assert b"leave [0, 2**64)" in run.stderr


@pytest.mark.parametrize("case", ["3", "3,x", "3,6", "1,2"])
def test_census_refuses_a_bad_case_before_its_header(case):
    run = _script("grassmann_census.py", "--cases", "2,2", case)
    assert run.returncode == 2
    assert run.stdout == b""
    assert f"case {case!r}".encode() in run.stderr
