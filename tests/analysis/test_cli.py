"""CLI: target resolution, formats, exit codes."""

import json
import pathlib

from repro.analysis.__main__ import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO = pathlib.Path(__file__).resolve().parents[2]


def test_codes_flag(capsys):
    assert main(["--codes"]) == 0
    out = capsys.readouterr().out
    assert "RA001" in out and "RA203" in out


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


def test_strict_gates_warnings(capsys):
    target = str(FIXTURES / "bad_scmd.py")
    assert main([target]) == 0          # warnings only: passes default gate
    assert main(["--strict", target]) == 1


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


def test_min_severity_filters_text(capsys):
    main(["--min-severity", "error", str(FIXTURES / "bad_component.py")])
    out = capsys.readouterr().out
    assert "RA103" not in out
    assert "RA101" in out


def test_default_surface_is_clean(capsys):
    assert main([]) == 0


# --------------------------------------------------------------- --races
def test_races_flag_gates_seeded_fixture(capsys):
    target = str(FIXTURES / "seeded_race.py")
    assert main(["--races", target]) == 1
    out = capsys.readouterr().out
    assert "RA301" in out
    # without --races only the RA2xx warnings remain: the default gate
    # passes and the RA3xx codes must not appear
    assert main([target]) == 0
    assert "RA301" not in capsys.readouterr().out


def test_races_json_format(capsys):
    assert main(["--races", "--format", "json",
                 str(FIXTURES / "seeded_race.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] >= 1
    assert any(f["code"] == "RA301" for f in doc["findings"])


def test_races_default_surface_is_clean(capsys):
    assert main(["--races", "--strict"]) == 0


def test_races_unresolvable_target_exits_2(capsys):
    assert main(["--races", "no/such/thing.rc"]) == 2
    assert "cannot resolve target" in capsys.readouterr().err


def test_clean_target_exits_0_in_both_formats(capsys):
    target = str(REPO / "examples")
    assert main(["--races", target]) == 0
    assert "0 error(s)" in capsys.readouterr().out
    assert main(["--races", "--format", "json", target]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] == 0


# ----------------------------------------------------------- --contracts
def test_contracts_flag_gates_seeded_fixture(capsys):
    target = str(FIXTURES / "bad_contracts.rc")
    assert main(["--contracts", target]) == 1
    out = capsys.readouterr().out
    assert "RA412" in out and "RA411" in out and "RA413" in out
    # without --contracts the same script passes the wiring-only gate
    assert main([target]) == 0
    assert "RA412" not in capsys.readouterr().out


def test_contracts_with_races_json(capsys):
    target = str(FIXTURES / "bad_contracts.rc")
    assert main(["--contracts", "--races", "--format", "json",
                 target]) == 1
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
        assert main(["--contracts", str(rc)]) == 0
        assert main(["--contracts", "--strict", str(rc)]) == 1


def test_contracts_default_surface_is_clean(capsys):
    assert main(["--contracts", "--races", "--strict"]) == 0


def test_contracts_unresolvable_target_exits_2(capsys):
    assert main(["--contracts", "no/such/thing.rc"]) == 2
    assert "cannot resolve target" in capsys.readouterr().err


# ------------------------------------------------------ manifest command
def test_manifest_check_committed_tree_clean(capsys):
    assert main(["manifest", "check"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_manifest_check_json(capsys):
    assert main(["manifest", "check", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["error"] == 0


def test_manifest_check_empty_dir_fails(tmp_path, capsys):
    assert main(["manifest", "check", "--dir", str(tmp_path)]) == 1
    assert "RA406" in capsys.readouterr().out


def test_manifest_emit_writes_and_is_idempotent(tmp_path, capsys):
    assert main(["manifest", "emit", "--dir", str(tmp_path),
                 "Initializer", "CvodeComponent"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    first = {p: open(p).read() for p in out}
    assert main(["manifest", "emit", "--dir", str(tmp_path),
                 "Initializer", "CvodeComponent"]) == 0
    capsys.readouterr()
    assert {p: open(p).read() for p in first} == first


def test_manifest_emit_unknown_class_exits_2(capsys):
    assert main(["manifest", "emit", "NoSuchComponent"]) == 2
    assert "unknown component class" in capsys.readouterr().err


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
    assert main(["--contracts", str(target)]) == 1
    out = capsys.readouterr().out
    assert "RA411 error: ImplicitIntegrator (ImplicitIntegrator) has " \
        "no parameter 'mode'" in out
    assert "RA005 error: ImplicitIntegrator (ImplicitIntegrator) has " \
        "no uses port 'chem'" in out
