"""Regression gate: baseline selection, thresholds, CLI exit codes."""

import json

import pytest

from repro.obs import regress
from repro.obs.regress import (
    NEW,
    NO_HISTORY,
    OK,
    REGRESSION,
    SKIPPED,
    Delta,
    compare_trajectory,
    format_deltas,
)


def _run(metrics, host="ci", fast=True):
    return {"time": 0.0,
            "fingerprint": {"host": host, "fast": fast, "commit": "abc"},
            "metrics": metrics}


def _doc(*runs, bench="demo"):
    return {"schema": 1, "bench": bench, "runs": list(runs)}


# ------------------------------------------------------------- comparisons
def test_clean_run_within_tolerance_is_ok():
    doc = _doc(_run({"t": 1.0}), _run({"t": 1.1}), _run({"t": 1.2}))
    (d,) = compare_trajectory(doc)
    assert d.status == OK
    assert d.baseline == pytest.approx(1.05)  # median of [1.0, 1.1]
    assert d.ratio == pytest.approx(1.2 / 1.05)


def test_injected_2x_slowdown_regresses():
    doc = _doc(_run({"t": 1.0}), _run({"t": 1.05}), _run({"t": 2.1}))
    (d,) = compare_trajectory(doc)
    assert d.status == REGRESSION
    assert d.bench == "demo" and d.metric == "t"


def test_improvement_never_fails():
    doc = _doc(_run({"t": 2.0}), _run({"t": 0.1}))
    (d,) = compare_trajectory(doc)
    assert d.status == OK


def test_median_baseline_resists_one_noisy_run():
    # a single historical spike must not raise the threshold
    doc = _doc(_run({"t": 1.0}), _run({"t": 50.0}), _run({"t": 1.0}),
               _run({"t": 1.4}))
    (d,) = compare_trajectory(doc)
    assert d.baseline == pytest.approx(1.0)
    assert d.status == OK
    doc = _doc(_run({"t": 1.0}), _run({"t": 50.0}), _run({"t": 1.0}),
               _run({"t": 1.6}))
    (d,) = compare_trajectory(doc)
    assert d.status == REGRESSION


def test_fast_mode_history_is_a_different_universe():
    # full-scale history must not gate a fast-mode run
    doc = _doc(_run({"t": 100.0}, fast=False), _run({"t": 1.0}, fast=True))
    (d,) = compare_trajectory(doc)
    assert d.status == NO_HISTORY and d.baseline is None


def test_history_starts_at_the_last_new_series_run():
    redefined = dict(_run({"t": 3.0}), new_series=True, note="why")
    doc = _doc(_run({"t": 1.0}), _run({"t": 1.0}), redefined)
    (d,) = compare_trajectory(doc)
    assert d.status == NO_HISTORY          # the first of its series
    doc["runs"].append(_run({"t": 3.1}))
    (d,) = compare_trajectory(doc)
    assert d.status == OK and d.baseline == 3.0 and d.n_history == 1
    doc["runs"].append(_run({"t": 6.5}))
    (d,) = compare_trajectory(doc)
    assert d.status == REGRESSION


def test_same_host_history_preferred():
    doc = _doc(_run({"t": 9.0}, host="other"), _run({"t": 1.0}),
               _run({"t": 1.1}))
    (d,) = compare_trajectory(doc)
    assert not d.cross_host
    assert d.baseline == pytest.approx(1.0)


def test_cross_host_fallback_when_no_same_host_history():
    doc = _doc(_run({"t": 1.0}, host="other"),
               _run({"t": 1.1}, host="fresh-runner"))
    (d,) = compare_trajectory(doc)
    assert d.cross_host
    assert d.baseline == pytest.approx(1.0)
    assert d.status == OK
    assert "*" in format_deltas([d])


def test_tiny_baselines_are_skipped():
    doc = _doc(_run({"t": 1e-6}), _run({"t": 1e-3}))
    (d,) = compare_trajectory(doc)
    assert d.status == SKIPPED


def test_new_metric_and_empty_doc():
    doc = _doc(_run({"t": 1.0}), _run({"t": 1.0, "fresh": 5.0}))
    deltas = {d.metric: d for d in compare_trajectory(doc)}
    assert deltas["fresh"].status == NEW
    assert deltas["t"].status == OK
    assert compare_trajectory(_doc()) == []


def test_format_deltas_table():
    text = format_deltas([
        Delta("b1", "t", 1.0, 2.1, 3, REGRESSION),
        Delta("b2", "u", None, 1.0, 0, NEW),
    ])
    assert "REGRESSION" in text
    assert "2.10x" in text
    assert "b2" in text and "new" in text


# ---------------------------------------------------------------- CLI gate
def _write_doc(tmp_path, doc, bench="demo"):
    path = tmp_path / f"BENCH_{bench}.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_clean_exit_zero(tmp_path, capsys):
    _write_doc(tmp_path, _doc(_run({"t": 1.0}), _run({"t": 1.1})))
    rc = regress.main(["--dir", str(tmp_path)])
    assert rc == 0
    assert "performance gate: clean" in capsys.readouterr().out


def test_cli_regression_exit_one_with_delta_table(tmp_path, capsys):
    _write_doc(tmp_path, _doc(_run({"t": 1.0}), _run({"t": 2.5})))
    rc = regress.main(["--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "REGRESSION" in captured.out
    assert "2.50x" in captured.out
    assert "PERFORMANCE REGRESSION DETECTED" in captured.err


def test_cli_tolerance_flag(tmp_path):
    _write_doc(tmp_path, _doc(_run({"t": 1.0}), _run({"t": 1.4})))
    assert regress.main(["--dir", str(tmp_path)]) == 0
    assert regress.main(["--dir", str(tmp_path), "--tolerance", "0.2"]) == 1


def test_cli_no_trajectories(tmp_path, capsys):
    assert regress.main(["--dir", str(tmp_path)]) == 0
    assert regress.main(["--dir", str(tmp_path), "--strict"]) == 1


def test_cli_named_bench_missing_is_usage_error(tmp_path):
    assert regress.main(["--dir", str(tmp_path), "nope"]) == 2


def test_cli_named_bench_selects_file(tmp_path):
    _write_doc(tmp_path, _doc(_run({"t": 1.0}), _run({"t": 2.5}),
                              bench="slow"), bench="slow")
    _write_doc(tmp_path, _doc(_run({"t": 1.0}), _run({"t": 1.0}),
                              bench="fine"), bench="fine")
    assert regress.main(["--dir", str(tmp_path), "fine"]) == 0
    assert regress.main(["--dir", str(tmp_path), "slow"]) == 1


def test_cli_corrupt_trajectory_warns(tmp_path, capsys):
    (tmp_path / "BENCH_bad.json").write_text("{not json")
    assert regress.main(["--dir", str(tmp_path)]) == 0
    assert "unreadable" in capsys.readouterr().err
    assert regress.main(["--dir", str(tmp_path), "--strict"]) == 1


def test_cli_quiet_shows_only_regressions(tmp_path, capsys):
    _write_doc(tmp_path, _doc(_run({"a": 1.0, "b": 1.0}),
                              _run({"a": 1.0, "b": 9.0})))
    rc = regress.main(["--dir", str(tmp_path), "--quiet"])
    out = capsys.readouterr().out
    assert rc == 1
    lines = [ln for ln in out.splitlines() if ln.startswith("demo")]
    assert len(lines) == 1 and "b" in lines[0]


def test_negative_baseline_gated_symmetrically():
    # signed KPIs (e.g. circulation): an unchanged value must be ok,
    # a drift toward zero beyond the |median| band must trip
    doc = _doc(_run({"c": -0.10}), _run({"c": -0.10}))
    (d,) = compare_trajectory(doc)
    assert d.status == OK
    doc = _doc(_run({"c": -0.10}), _run({"c": -0.04}))
    (d,) = compare_trajectory(doc)
    assert d.status == REGRESSION
