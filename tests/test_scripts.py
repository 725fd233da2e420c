import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_verification_script_stdout_is_the_same_bytes_on_every_run():
    argv = [
        sys.executable,
        str(SCRIPTS / "run_verification.py"),
        *("--samples-q2", "1", "--samples-q3", "1", "--shadow", "5"),
    ]
    runs = [subprocess.run(argv, capture_output=True, timeout=120) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout.endswith(b"\n== ALL SECTIONS PASS\n")
        assert run.stderr.startswith(b"wall time ")
    assert runs[0].stdout == runs[1].stdout
