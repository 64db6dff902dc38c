"""bench/run.py's output digests, checked in tier-1.

Each workload runs its first 20 ops at seed 301 in a child process, and
the sha256 it prints over their outputs must equal the row below, so a
change that moves any benchmark output byte fails here before the
benchmark is run. The digests depend on the numpy and Python builds, as
test_golden's do: under other versions than its MADE_WITH every row skips
and names both sets. bench/run.py imports scipy, so without scipy every
row skips too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import MADE_WITH, running_versions

RUN = Path(__file__).parents[1] / "bench" / "run.py"

DIGESTS = {
    "sweep_grid": "88c15d97be92331460fc8c72d4a95c49159fc5875af8d8475990cf43a2fdffbe",
    "attack_line": "5268f19bffb2dd02b3e95a8b22855b9e32cdf4a411eebffbd43d87686b0bec61",
    "attack_air": "aba41c4823bc2a6f03cb63370eaef5bbd321e851c6dd92c6926151226dd26ee1",
}


@pytest.mark.parametrize("workload", DIGESTS)
def test_a_workload_prints_its_golden_digest(workload):
    if importlib.util.find_spec("scipy") is None:
        pytest.skip("bench/run.py imports scipy, which is not installed")
    if running_versions() != MADE_WITH:
        pytest.skip(f"digests made under {MADE_WITH}; running under {running_versions()}")
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "301",
            "--ops", "20", "--seconds", "1", "--trace", "0"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                         cwd=RUN.parents[1])
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"digest sha256={DIGESTS[workload]} over the outputs of the first 20 ops" \
        in run.stdout.splitlines()
