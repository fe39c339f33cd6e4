"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import floors  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gca import algorithms, archsim, cli, core, formats, oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_and_repeatable_digest():
    args = ("--workload", "small-catalog", "--seed", "4", "--seconds", "1")
    traced = _bench(*args, "--trace", "1")
    result = _result(traced)
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    plain = _bench(*args, "--trace", "0")
    _result(plain)

    def digest(proc):
        return next(line for line in proc.stdout.splitlines() if line.startswith("counts per round"))

    assert digest(traced) == digest(plain)


def _bindings() -> dict:
    found = {}
    for module in (core, algorithms, archsim, cli, formats, oracles):
        for name, value in vars(module).items():
            if callable(value):
                found[(module.__name__, name)] = value
    found.update({("CATALOG", name): fn for name, fn in algorithms.CATALOG.items()})
    return found


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    cases = workloads.build("small-catalog", 5, str(tmp_path))
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.surviving_patches()
        for case in cases:
            case.check(case.run())
    finally:
        tr.remove()
    assert tracer.surviving_patches() == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    layers = {span[0] for span in tr.spans}
    for layer in ("core.step_sync", "core.step_async", "core.run", "algorithms.build",
                  "algorithms.execute", "algorithms.verify", "firing.verify", "oracles",
                  "formats", "cli.main", "archsim.run_on_arch", "archsim.simulate"):
        assert layer in layers
    report = tracer.layer_report(tr.spans, 10**12)
    assert sum(report.self_ns.values()) + report.other_ns == report.total_ns


def test_floors_match_the_engine():
    results, errors = floors.measure(seed=2, passes=1)
    assert errors == []
    assert set(results) == {"1d-basic-1arm", "2d-general-4arm", "2d-plain-4arm"}


def test_checks_can_fail(tmp_path):
    case = workloads.build("fold-1d", 1, str(tmp_path))[0]
    spec, result, err = case.run()
    case.check((spec, result, err))
    result.config.states[0] = core.CellState(result.config.states[0].data + 1, (0,))
    with pytest.raises(workloads.CheckFailed):
        case.check((spec, result, err))
    with pytest.raises(workloads.CheckFailed):
        case.check((spec, result, "verify said no"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fold-1d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
