"""Smoke test of the benchmark suite (run it explicitly: ``python -m
pytest benchmarks/suite``; tier-1's ``testpaths`` does not include it).

Tiny sizes, one repetition: every workload and metric named in
``BENCHMARK.json`` is reported and nothing else, names are well formed,
the hand-marched traced loops reproduce the drivers bit for bit, the
runner refuses a polluted environment, and ``compare.py`` tells an A/A
pair from a regression.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))

import pytest  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    clean = {k: v for k, v in os.environ.items()
             if not k.startswith("REPRO_")}
    clean.update(env or {})
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=REPO, env=clean, capture_output=True, text=True, timeout=300)


def test_names_are_well_formed():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert sorted([w["name"] for w in spec["workloads"]]
                  + list(run.EXTRA_WORKLOADS)) == sorted(WORKLOADS)


def test_tiny_set_reports_every_workload_and_end_to_end_metric():
    spec = _spec()
    begin = time.monotonic()
    proc = _run("--runs", "1", "--reps", "1", "--tiny", "--seed", "5")
    elapsed = time.monotonic() - begin
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(doc["runs"]) == [w["name"] for w in spec["workloads"]]
    for runs in doc["runs"].values():
        (run,) = runs
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert {n: m["unit"] for n, m in run["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in run["metrics"].values())
    assert {"nproc", "python", "numpy", "commit"} <= set(doc["header"])


def test_tiny_traced_run_reports_every_per_layer_metric():
    spec = _spec()
    proc = _run("--workload", "flame_diffusion_amr", "--seed", "5",
                "--reps", "1", "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["metrics"]["accounted_frac"]["value"] >= 0.9


@pytest.mark.parametrize("name", ["flame_cvode", "flame_diffusion_amr",
                                  "shock_amr"])
def test_hand_marched_loop_equals_the_driver_bit_for_bit(name, tmp_path):
    results = []
    for traced in (False, True):
        workload = WORKLOADS[name](0, str(tmp_path), True)
        workload.setup()
        results.append(workload.run_traced(SpanRecorder(name)) if traced
                       else workload.run())
    driver, marched = results
    assert set(driver) <= set(marched)
    for key, value in driver.items():
        assert marched[key] == value, key


def test_flame_assembly_is_the_public_one_call_run():
    from repro.apps import run_reaction_diffusion

    workload = WORKLOADS["flame_diffusion_amr"](0, "", True)
    workload.setup()
    assert workload.run() == run_reaction_diffusion(**workload.config)


def test_refuses_a_polluted_environment():
    proc = _run("--workload", "flame_cvode", "--tiny", "--reps", "1",
                env={"REPRO_FAST": "1"})
    assert proc.returncode != 0
    assert "REPRO_FAST" in proc.stderr
    assert not proc.stdout.strip()


def _doc(wall: float) -> dict:
    spec = _spec()
    run = {"correct": True, "attempted": 4, "failed": 0, "metrics": {
        m["name"]: {"value": wall, "unit": m["unit"]}
        for m in spec["end_to_end"]}}
    runs = []
    for k in range(10):
        r = copy.deepcopy(run)
        for m in r["metrics"].values():
            m["value"] *= 1.0 + 0.002 * k
        runs.append(r)
    return {"runs": {"flame_cvode": runs}}


def test_compare_tells_same_from_regressed():
    spec = _spec()
    rows, bad = compare.compare(spec, _doc(1.0), _doc(1.0))
    assert not bad and {r["verdict"] for r in rows} == {"ok"}
    rows, bad = compare.compare(spec, _doc(1.0), _doc(2.0))
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert bad and verdicts["wall_s"] == "regressed"
    assert verdicts["work_per_s"] == "ok"  # higher is better
    failing = _doc(1.0)
    failing["runs"]["flame_cvode"][0]["failed"] = 1
    rows, bad = compare.compare(spec, _doc(1.0), failing)
    assert bad
