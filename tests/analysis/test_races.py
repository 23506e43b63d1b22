"""SCMD races: RA301–RA308, happens-before approximation."""

import pathlib
import textwrap

import pytest

from repro.analysis.findings import Severity
from repro.analysis import scmd
from repro.analysis.contracts import model_from_script
from repro.analysis.scmd import analyze_file, analyze_source
from repro.cca.component import Component

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint(code, **kw):
    """The RA3xx findings of a source snippet (its RA2xx ones aside)."""
    return [f for f in analyze_source(textwrap.dedent(code), "<test>", **kw)
            if f.code.startswith("RA3")]


def codes(findings):
    return [f.code for f in findings]


# ------------------------------------------------------------ RA301 / RA302
def test_unguarded_shared_write_ra301():
    (f,) = lint("""\
        class C:
            cfg = {}
            def go(self):
                C.cfg['x'] = 1
        """)
    assert f.code == "RA301"
    assert f.severity is Severity.ERROR
    assert "every rank-thread" in f.message
    assert "shared 'C.cfg'" in f.message


def test_unguarded_module_global_write_ra301():
    (f,) = lint("""\
        state = {}
        class C:
            def go(self):
                state['x'] = 1
        """)
    assert f.code == "RA301"
    assert "shared '<test>:state'" in f.message


def test_accumulation_into_shared_ra302():
    (f,) = lint("""\
        class C:
            seen = []
            def go(self, x):
                C.seen.append(x)
        """)
    assert f.code == "RA302"
    assert f.severity is Severity.ERROR
    assert "allreduce" in f.message


def test_augassign_via_global_ra302():
    (f,) = lint("""\
        totals = []
        class C:
            def go(self, x):
                global totals
                totals += [x]
        """)
    assert f.code == "RA302"


def test_non_step_methods_are_not_rank_code():
    assert lint("""\
        class C:
            cfg = {}
            def configure(self):
                C.cfg['x'] = 1
        """) == []


def test_instance_state_is_fine():
    assert lint("""\
        class C:
            def go(self):
                self.cache = {}
                self.cache['x'] = 1
        """) == []


# ------------------------------------------ every spelling of a shared write
WRITE_CASES = {
    "class_attr": ("""\
        class C:
            def go(self):
                C.state = 1
                self.__class__.other = 2
        """, [("RA301", 3), ("RA301", 4)]),
    # the pragma silences the *binding*, not writes from rank code
    "module_dict": ("""\
        _cache = {}  # scmd: shared

        class C:
            def step(self):
                _cache["k"] = 1
                _cache.update(a=2)
        """, [("RA301", 5), ("RA302", 6)]),
    "class_level_calls": ("""\
        class C:
            seen = set()  # scmd: shared
            cfg = {}  # scmd: shared

            def go(self):
                C.seen.add(1)
                self.__class__.cfg.update(a=2)
                self.cfg.setdefault("k", 3)
        """, [("RA302", 6), ("RA302", 7), ("RA302", 8)]),
    "self_attr": ("""\
        class C:
            tallies = {}  # scmd: shared
            history = []  # scmd: shared

            def step(self):
                self.tallies["k"] = 1
                self.history += [2]
                self.history.append(3)
        """, [("RA301", 6), ("RA302", 7), ("RA302", 8)]),
    "augassign_class_attr": ("""\
        class C:
            total = []  # scmd: shared

            def go(self):
                C.total += [1]
        """, [("RA302", 5)]),
    # one rank writes, then a barrier publishes: ordered, so clean
    "rank_guarded_published": ("""\
        class C:
            total = []  # scmd: shared

            def go(self, comm):
                if comm.rank == 0:
                    C.total.append(1)
                comm.barrier()
        """, []),
}


@pytest.mark.parametrize("case", WRITE_CASES)
def test_rank_code_write_codes_and_lines(case):
    source, expected = WRITE_CASES[case]
    assert [(f.code, f.line) for f in lint(source)] == expected


# ------------------------------------------------------------------- RA303
def test_guarded_write_without_publish_ra303():
    (f,) = lint("""\
        class C:
            cfg = {}
            def go(self, comm):
                if comm.rank == 0:
                    C.cfg['x'] = 1
        """)
    assert f.code == "RA303"
    assert f.severity is Severity.WARNING
    assert "stale" in f.message


def test_guarded_write_published_by_collective_is_clean():
    assert lint("""\
        class C:
            cfg = {}
            def go(self, comm):
                if comm.rank == 0:
                    C.cfg['x'] = 1
                comm.barrier()
        """) == []


def test_publish_via_bcast_result_is_clean():
    assert lint("""\
        class C:
            cfg = {}
            def go(self, comm):
                if comm.rank == 0:
                    C.cfg['x'] = 1
                value = comm.bcast(C.cfg, root=0)
        """) == []


# ------------------------------------------------------------------- RA304
def test_patch_write_over_all_patches_ra304():
    (f,) = lint("""\
        class S:
            def go(self, dobj, hier):
                for p in hier.patches:
                    dobj.array(p)[:] = 0.0
        """)
    assert f.code == "RA304"
    assert f.severity is Severity.WARNING
    assert "owned_patches" in f.message


def test_owned_patches_loop_is_clean():
    assert lint("""\
        class S:
            def go(self, dobj, hier, rank):
                for p in hier.owned_patches(rank):
                    dobj.array(p)[:] = 0.0
        """) == []


def test_owner_guard_inside_all_patches_loop_is_clean():
    assert lint("""\
        class S:
            def go(self, dobj, hier, rank):
                for p in hier.patches:
                    if p.owner == rank:
                        dobj.array(p)[:] = 0.0
        """) == []


# ------------------------------------------------------------------- RA305
def test_collective_in_rank_branch_ra305():
    (f,) = lint("""\
        class C:
            def go(self, comm):
                if comm.rank == 0:
                    comm.barrier()
        """)
    assert f.code == "RA305"
    assert f.severity is Severity.ERROR
    assert "deadlock" in f.message


def test_collective_in_else_of_rank_branch_ra305():
    assert codes(lint("""\
        class C:
            def go(self, comm):
                if comm.rank == 0:
                    pass
                else:
                    comm.reduce(1)
        """)) == ["RA305"]


def test_uniform_collective_is_clean():
    assert lint("""\
        class C:
            def go(self, comm):
                comm.barrier()
                total = comm.allreduce(1)
        """) == []


# ------------------------------------------------------------------- RA308
def test_shared_read_note_ra308():
    (f,) = lint("""\
        table = {'a': 1}
        class C:
            def go(self):
                return table['a']
        """)
    assert f.code == "RA308"
    assert f.severity is Severity.INFO


def test_constant_style_read_is_not_noted():
    assert lint("""\
        TABLE = {'a': 1}
        class C:
            def go(self):
                return TABLE['a']
        """) == []


# --------------------------------------------------- pragma and allowlist
def test_pragma_suppresses_race_findings():
    assert lint("""\
        class C:
            cfg = {}
            def go(self):
                C.cfg['x'] = 1  # scmd: shared
        """) == []


def test_allowlist_suppresses_race_findings():
    # "_log" is in the default SCMD allowlist
    assert lint("""\
        class C:
            _log = {}
            def go(self):
                C._log['x'] = 1
        """) == []


# --------------------------------------------------------- rc-script layer
def analyze_script(text, classes):
    return scmd.analyze_script(model_from_script(text), classes)


def test_parameter_after_go_ra306():
    findings = analyze_script(
        "instantiate Driver d\ngo d\nparameter d dt 0.1\n", classes=[])
    assert codes(findings) == ["RA306"]
    assert findings[0].severity is Severity.ERROR
    assert findings[0].line == 3


def test_parameter_before_go_is_clean():
    assert analyze_script(
        "instantiate Driver d\nparameter d dt 0.1\ngo d\n",
        classes=[]) == []


class TallyWriter(Component):
    """Test-only component whose step method writes a shared class dict."""

    ledger = {}

    def go(self):
        TallyWriter.ledger["n"] = 1
        return 0


def test_two_reachable_writers_ra307():
    script = ("instantiate TallyWriter a\n"
              "instantiate TallyWriter b\n"
              "go a\ngo b\n")
    findings = analyze_script(script, classes=[TallyWriter])
    assert codes(findings) == ["RA307"]
    f = findings[0]
    assert f.severity is Severity.WARNING
    assert "TallyWriter.ledger" in f.message
    assert "a, b" in f.message


def test_single_writer_is_clean():
    script = "instantiate TallyWriter a\ngo a\n"
    assert analyze_script(script, classes=[TallyWriter]) == []


def test_unreachable_second_writer_is_clean():
    # b is instantiated but never wired to / run from a go target
    script = ("instantiate TallyWriter a\n"
              "instantiate TallyWriter b\n"
              "go a\n")
    assert analyze_script(script, classes=[TallyWriter]) == []


def test_writer_reachable_through_connect_edge_ra307():
    script = ("instantiate TallyWriter drv\n"
              "instantiate TallyWriter leaf\n"
              "connect drv out leaf in\n"
              "go drv\n")
    findings = analyze_script(script, classes=[TallyWriter])
    assert codes(findings) == ["RA307"]


class Board:
    """Test-only holder of a class-level dict written by other classes."""

    tally = {}


class WriterA(Component):
    def go(self):
        Board.tally["a"] = 1


class WriterB(Component):
    def go(self):
        Board.tally["b"] = 1


def test_writes_are_keyed_by_the_owning_class_ra307():
    script = ("instantiate WriterA a\ninstantiate WriterB b\n"
              "go a\ngo b\n")
    (f,) = analyze_script(script, classes=[WriterA, WriterB])
    assert f.code == "RA307"
    assert "shared object Board.tally is written through 2" in f.message
    script = ("instantiate WriterB b1\ninstantiate WriterB b2\n"
              "go b1\ngo b2\n")
    (f,) = analyze_script(script, classes=[WriterB])
    assert "Board.tally" in f.message and "WriterB.tally" not in f.message


# ------------------------------------------------------ the seeded fixture
def test_seeded_race_fixture_is_caught_statically():
    findings = analyze_file(str(FIXTURES / "seeded_race.py"))
    assert "RA301" in codes(findings)
    (f,) = [f for f in findings if f.code == "RA301"]
    assert "shared 'RacyTally.tallies'" in f.message
    assert f.context == "RacyTally"
