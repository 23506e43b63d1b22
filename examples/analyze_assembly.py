#!/usr/bin/env python3
"""Pre-flight static analysis of a component assembly.

CCAFFEINE refuses bad compositions before the simulation runs; this
example shows our analog, the assembly pass, catching wiring mistakes
*without* executing ``go``.  The good script (the shipped 0D ignition
assembly) passes; the broken variant — a dropped connect, a type
mismatch, and wiring after ``go`` — produces line-numbered RAxxx
findings, each defect reported once.

Run:  python examples/analyze_assembly.py
"""

from repro.analysis import Report, Severity, contracts
from repro.apps import IGNITION0D_SCRIPT

BROKEN_SCRIPT = """\
instantiate Initializer Initializer
instantiate ThermoChemistry ThermoChemistry
instantiate CvodeComponent CvodeComponent
instantiate Ignition0DDriver Driver
instantiate StatisticsComponent Statistics

connect Driver ic Initializer ic
connect Driver solver ThermoChemistry chemistry   # wrong provider: type mismatch
connect Driver stats Statistics stats
go Driver
connect Driver chem ThermoChemistry chemistry     # wired after go: never took effect
"""


def main() -> None:
    print("shipped assembly (IGNITION0D_SCRIPT):")
    good = Report(contracts.analyze_script(IGNITION0D_SCRIPT,
                                           path="<IGNITION0D_SCRIPT>"))
    print(good.format_text(Severity.WARNING))
    print()
    print("broken variant:")
    bad = Report(contracts.analyze_script(BROKEN_SCRIPT, path="<broken>"))
    print(bad.format_text(Severity.WARNING))
    print()
    print(f"gate: good exit={good.exit_code()}, bad exit={bad.exit_code()}")


if __name__ == "__main__":
    main()
