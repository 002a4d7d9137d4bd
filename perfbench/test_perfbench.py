"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# counts that must repeat exactly for a fixed seed
EXACT_COUNTS = (
    "optimize.iterations",
    "optimize.objective_evals",
    "recovery.ext.points",
    "energy.terms",
    "continuum.triangles",
)


def _bench(workload: str, trace: int, seed: int = 5) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _load_run(monkeypatch):
    """run.py as a module, with the benchmark directory importable."""
    monkeypatch.syspath_prepend(str(HERE))
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "cap_blas_threads", lambda: None)
    return mod


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload):
    untraced, text = _bench(workload, 0)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert untraced["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} = " in text
    assert "host.ref_s start=" in text

    first, _ = _bench(workload, 1)
    second, _ = _bench(workload, 1)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_perturbed_result_counts_as_failed(monkeypatch, capsys):
    import helimag.optimize

    run = _load_run(monkeypatch)
    original = helimag.optimize.minimize_H

    def perturbed(*args, **kwargs):
        res = original(*args, **kwargs)
        res.report.total *= 1.0 + 1e-6
        return res

    monkeypatch.setattr(helimag.optimize, "minimize_H", perturbed)
    assert run.main(["--workload", "descent", "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert result["metrics"]["success_frac"]["value"] == 0.0


@pytest.mark.parametrize("fake_result", [
    (2, {"error": "injected"}),  # nonzero status
    (0, {}),  # status 0, but no output files and no result fields
])
def test_failed_cli_job_counts_as_failed(monkeypatch, capsys, fake_result):
    import helimag.cli

    run = _load_run(monkeypatch)
    monkeypatch.setattr(helimag.cli, "run", lambda command, config: fake_result)
    assert run.main(["--workload", "evaluate", "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
