"""CLI: target resolution, formats, exit codes."""

import json
import pathlib

from repro.analysis.__main__ import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO = pathlib.Path(__file__).resolve().parents[2]


def test_codes_flag(capsys):
    assert main(["--codes"]) == 0
    out = capsys.readouterr().out
    assert "RA001" in out and "RA301" in out
    assert "RA203" not in out  # retired, not reused


def test_bad_script_exits_1_with_line_numbered_findings(capsys):
    rc = main([str(FIXTURES / "bad_wiring.rc")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "bad_wiring.rc:15: RA006 error" in out


def test_json_format(capsys):
    assert main(["--format", "json",
                 str(FIXTURES / "bad_component.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] >= 2
    assert any(f["code"] == "RA104" for f in doc["findings"])


def test_strict_gates_warnings(tmp_path, capsys):
    target = tmp_path / "warn_only.py"
    target.write_text("cache = {}\n")  # RA201, a warning
    assert main([str(target)]) == 0     # warnings only: passes default gate
    assert main(["--strict", str(target)]) == 1


def test_allow_extends_scmd_allowlist(capsys):
    target = str(FIXTURES / "bad_scmd.py")
    assert main(["--strict", "--allow", "cache", "--allow", "results",
                 "--allow", "history", "--allow", "_counts", target]) == 0


def test_assembly_target(capsys):
    assert main(["ignition0d"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_package_target(capsys):
    assert main(["repro.components"]) == 0


def test_directory_target(capsys):
    assert main([str(REPO / "examples")]) == 0


def test_unresolvable_target_exits_2(capsys):
    assert main(["no/such/thing.rc"]) == 2
    assert "cannot resolve target" in capsys.readouterr().err


def test_unparseable_file_is_reported_once(tmp_path, capsys):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    assert main([str(target)]) == 1
    out = capsys.readouterr().out
    assert out.count("RA001") == 1
    assert "1 error(s)" in out


def test_min_severity_filters_text(capsys):
    main(["--min-severity", "error", str(FIXTURES / "bad_component.py")])
    out = capsys.readouterr().out
    assert "RA105" not in out  # an info finding of the fixture
    assert "RA101" in out


def test_default_surface_is_clean(capsys):
    assert main([]) == 0


# ------------------------------------------------------------------ races
def test_races_flag_gates_seeded_fixture(capsys):
    target = str(FIXTURES / "seeded_race.py")
    assert main([target]) == 1
    out = capsys.readouterr().out
    assert "RA301" in out


def test_races_json_format(capsys):
    assert main(["--format", "json",
                 str(FIXTURES / "seeded_race.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] >= 1
    assert any(f["code"] == "RA301" for f in doc["findings"])


def test_races_default_surface_is_clean(capsys):
    assert main(["--strict"]) == 0


def test_races_unresolvable_target_exits_2(capsys):
    assert main(["no/such/thing.py"]) == 2
    assert "cannot resolve target" in capsys.readouterr().err


def test_clean_target_exits_0_in_both_formats(capsys):
    target = str(REPO / "examples")
    assert main([target]) == 0
    assert "0 error(s)" in capsys.readouterr().out
    assert main(["--format", "json", target]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] == 0


# -------------------------------------------------------------- contracts
def test_contracts_flag_gates_seeded_fixture(capsys):
    target = str(FIXTURES / "bad_contracts.rc")
    assert main([target]) == 1
    out = capsys.readouterr().out
    assert "RA412" in out and "RA411" in out and "RA413" in out


def test_contracts_with_races_json(capsys):
    target = str(FIXTURES / "bad_contracts.rc")
    assert main(["--format", "json", target]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] == 3
    found = {f["code"] for f in doc["findings"]}
    assert {"RA411", "RA412", "RA413", "RA416"} <= found


def test_contracts_strict_gates_the_ra416_warning(capsys):
    # drop the three error lines: only the RA416 warning remains
    text = (FIXTURES / "bad_contracts.rc").read_text()
    kept = [ln for ln in text.splitlines()
            if "9999999" not in ln and "bogus" not in ln
            and "h3-air" not in ln]
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        rc = pathlib.Path(td) / "warn_only.rc"
        rc.write_text("\n".join(kept) + "\n")
        assert main([str(rc)]) == 0
        assert main(["--strict", str(rc)]) == 1


def test_contracts_default_surface_is_clean(capsys):
    assert main(["--strict", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["warning"] == 0


def test_contracts_unresolvable_target_exits_2(capsys):
    assert main(["--format", "json", "no/such/thing.rc"]) == 2
    assert "cannot resolve target" in capsys.readouterr().err


# ------------------------------------------------ a retired option is a finding
def stale_flame_rc() -> str:
    """``examples/reaction_diffusion.rc`` as it read while
    ``ImplicitIntegrator`` still had a ``mode`` parameter and a ``chem``
    uses port."""
    text = (REPO / "examples/reaction_diffusion.rc").read_text()
    solver = "connect ImplicitIntegrator solver CvodeSolver solver\n"
    assert solver in text
    return text.replace(
        solver,
        "parameter ImplicitIntegrator mode batch\n" + solver +
        "connect ImplicitIntegrator chem ReactionTerms chemistry\n")


def test_script_selecting_the_deleted_chemistry_fork_is_a_finding(
        tmp_path, capsys):
    target = tmp_path / "stale.rc"
    target.write_text(stale_flame_rc())
    assert main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "RA411 error: ImplicitIntegrator (ImplicitIntegrator) has " \
        "no parameter 'mode'" in out
    assert "RA005 error: ImplicitIntegrator (ImplicitIntegrator) has " \
        "no uses port 'chem'" in out
