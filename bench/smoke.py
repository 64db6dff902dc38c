"""Smoke test for the benchmark: each workload for a few ops on a fixed seed.

    python3 -m pytest -q bench/smoke.py

Checks that every end-to-end metric is printed with its unit, that two runs
with one seed give one digest, and that the traced run reports exactly the
per-layer metrics listed below.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("sweep_grid", "attack_line", "attack_air")
OPS = 4
SEED = 7

# The per-layer metrics the benchmark promises, by layer.
PER_LAYER = (
    "audio_io.read_wav.ms", "audio_io.canonicalize.ms", "audio_io.write_wav.ms",
    "audio_io.bytes_encoded",
    "perturb.rpg.ms", "perturb.rpg.windows", "perturb.tdi.ms", "perturb.hfa.ms",
    "perturb.ts.ms", "perturb.apply_params.calls", "perturb.hfa.rescales",
    "features.extract_features.calls", "features.extract_features.ms",
    "features.frames", "features.feature_distance.ms",
    "attack.queries", "attack.candidates_rendered", "attack.render_useful_ratio",
    "attack.self_ms",
    "channel.simulate.calls", "channel.simulate.ms", "dsp.apply_fir.ms",
    "vad.detect_speech.calls", "vad.detect_speech.ms", "vad.frames",
    "audio_io.errors", "perturb.errors", "features.errors", "attack.errors",
    "channel.errors", "dsp.errors", "vad.errors",
    "trace.op_ms.p50", "trace.untraced_op_ms.p50", "trace.overhead_pct",
    "trace.spans_per_op",
)

# The names the report gives op_ms and candidates_per_op on each workload.
REPORTED_AS = {
    "sweep_grid": ("sweep_ms.p50", "sweep_ms.p90"),
    "attack_line": ("attack_ms.p50", "attack_ms.p90", "queries_per_attack"),
    "attack_air": ("attack_ms.p50", "attack_ms.p90", "queries_per_attack"),
}


def bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--ops", str(OPS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def digest(report: str) -> str:
    return re.search(r"^digest sha256=([0-9a-f]{64}) ", report, re.M).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    result, report = bench(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] == OPS and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in want.items():
        assert re.search(rf"^{re.escape(name)}\b.* {re.escape(unit)}\b", report, re.M), name
    for alias in REPORTED_AS[workload]:
        assert f"({alias})" in report, alias
    assert "failed_frac=" in report and "n=%d" % OPS in report

    again, report_again = bench(workload, 0)
    assert digest(report) == digest(report_again)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_the_per_layer_metrics(workload):
    result, report = bench(workload, 1)
    assert result["correct"] is True
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert sorted(result["metrics"]) == sorted(PER_LAYER)
    assert all(result["metrics"][n]["unit"] == m["unit"]
               for n, m in ((m["name"], m) for m in SPEC["per_layer"]))
    calls = result["metrics"]["perturb.apply_params.calls"]["value"]
    assert calls == (12 if workload == "sweep_grid" else 10)
    uses_channel = workload == "attack_air"
    assert (result["metrics"]["channel.simulate.calls"]["value"] > 0) == uses_channel
    assert (result["metrics"]["vad.detect_speech.calls"]["value"] > 0) == uses_channel


def test_refuses_to_run_without_the_sources(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench_copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "attack_line", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
