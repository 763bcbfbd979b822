"""The runner of tests/scale_checks.py, and the workflow steps that call it."""

import hashlib
import re
from pathlib import Path

import pytest

import scale_checks
from ietlab.cli import main

from oracles import HAS_PROC_STATUS

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
def test_runner_gives_what_main_writes_and_the_child_peak(capsys):
    argv = ["generate", "3iet", "--eps", scale_checks.SILVER, "--ell", "7/10", "-N", "1000"]
    peaks = []
    code, out, err = scale_checks.run(peaks, argv, 60)
    assert main(argv) == code == 0 and err == ""
    expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert hashlib.sha256(out).hexdigest() == expected
    # a refusal's stderr comes back without the peak line after it
    assert scale_checks.run(peaks, ["generate", "3iet", "-N", "0"], 60) == (
        2, b"", "error: -N: must be >= 1 (got 0)")
    assert len(peaks) == 2 and min(peaks) > 0


def test_each_job_runs_the_checks_once_and_only_there():
    jobs = re.split(r"(?m)^  [\w-]+:\n", WORKFLOW.read_text().partition("\njobs:\n")[2])[1:]
    assert jobs
    for job in jobs:
        assert job.count("python tests/scale_checks.py") == 1
        for step in job.split("\n      - "):
            if "name: Installed console script" not in step:
                assert not re.search(r"sha256sum|PEAK_KIB_SOURCE|ietlab index", step), step
