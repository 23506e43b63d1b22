"""Integration tests for the 0D ignition application (paper §4.1)."""

import numpy as np
import pytest

from repro.apps import IGNITION0D_SCRIPT, assembly_table, run_ignition0d
from repro.apps.ignition0d import IGNITION0D_COMPONENTS, build_ignition0d
from repro.cca import Framework, run_script


@pytest.fixture(scope="module")
def ignition_result():
    return run_ignition0d(t_end=1e-3)


def test_ignites_to_high_temperature(ignition_result):
    """Stoichiometric H2-air from 1000 K / 1 atm must ignite well before
    1 ms (the paper integrates to 1 ms)."""
    res = ignition_result
    assert res["T0"] == 1000.0
    assert res["T_final"] > 2500.0


def test_pressure_rises_in_closed_vessel(ignition_result):
    """Rigid walls: P roughly tracks T (constant mass and volume)."""
    res = ignition_result
    assert res["P_final"] > 2.0 * res["P0"]
    # ideal gas at constant volume: P/P0 ~ (T/T0) * (W0/W)
    ratio_T = res["T_final"] / res["T0"]
    ratio_P = res["P_final"] / res["P0"]
    assert 0.5 * ratio_T < ratio_P < 1.5 * ratio_T


def test_mass_fractions_remain_physical(ignition_result):
    Y = ignition_result["Y_final"]
    assert Y.sum() == pytest.approx(1.0, abs=1e-6)
    assert Y.min() > -1e-8
    assert ignition_result["Y_H2O_final"] > 0.15  # product formed


def test_history_is_monotone_through_ignition(ignition_result):
    hist = ignition_result["history_T"]
    temps = [T for _, T in hist]
    assert temps[0] == 1000.0
    assert max(temps) == temps[-1] or max(temps) > 2500.0
    # ignition delay: a sharp rise somewhere inside the window
    jumps = [b - a for a, b in zip(temps, temps[1:])]
    assert max(jumps) > 300.0


def test_nfe_counted(ignition_result):
    assert ignition_result["nfe"] > 100


def test_script_assembly_matches_builder():
    """The rc-script path must produce the same physics as the
    programmatic builder (same assembly, same answer)."""
    fw = Framework()
    fw.registry.register_many(IGNITION0D_COMPONENTS)
    (script_result,) = run_script(fw, IGNITION0D_SCRIPT)
    builder_result = run_ignition0d(t_end=1e-3)
    assert script_result["T_final"] == pytest.approx(
        builder_result["T_final"], rel=1e-4)


def test_lite_mechanism_variant_runs():
    """The 8sp/5rxn mechanism drops the H2+M initiation channel, so a pure
    (radical-free) mixture stays chemically frozen — the run must complete
    cleanly with T pinned at T0."""
    res = run_ignition0d(mechanism="h2-lite", T0=1200.0, t_end=2e-4)
    assert np.isfinite(res["T_final"])
    assert res["T_final"] == pytest.approx(1200.0, abs=1.0)
    assert res["nfe"] > 0


@pytest.mark.parametrize("config", [
    {"mechanism": "h2-air", "T0": 1000.0, "t_end": 1e-3},
    {"mechanism": "h2-lite", "T0": 1100.0, "t_end": 1e-5},   # serve's job
], ids=["h2-air", "h2-lite"])
def test_output_grid_does_not_change_the_run(config):
    """One solver trajectory per run, continued across the output times:
    the outputs only sample it, so the end state and the work done are
    the same, bit for bit, however many outputs are asked for."""
    runs = []
    for n_output in (4, 20, 50):
        fw = Framework()
        build_ignition0d(fw, **config)
        fw.set_parameter("Driver", "n_output", n_output)
        runs.append(fw.go("Driver"))
    first = runs[0]
    for res in runs[1:]:
        assert res["T_final"] == first["T_final"]
        assert np.array_equal(res["Y_final"], first["Y_final"])
        assert res["nfe"] == first["nfe"]


def test_assembly_table_matches_paper_table1():
    table = assembly_table("ignition0d")
    assert table["Implicit Integration"] == ["CvodeComponent",
                                             "ThermoChemistry"]
    assert table["Mesh"] == ["N/A"]
    assert table["Adaptors"] == ["problemModeler"]


def test_assembly_describe_lists_connections():
    fw = Framework()
    build_ignition0d(fw)
    text = fw.describe()
    assert "CvodeComponent.rhs -> problemModeler.model" in text
    assert "problemModeler.dpdt -> dPdt.dpdt" in text
