"""The 0D ignition application (paper §4.1, Table 1, Fig. 1).

Component assembly::

    Initializer ──ic──▶ Ignition0DDriver ◀──solver── CvodeComponent
                                                          │ rhs
                                                          ▼
    dPdt ──dpdt──▶ ProblemModeler ◀──chem── ThermoChemistry

``CvodeComponent`` integrates the constant-volume Φ-equation assembled by
``ProblemModeler`` (chemistry from ``ThermoChemistry``, pressure closure
from ``DPDt``); the driver seeds Φ0 from ``Initializer`` and marches to
``t_end`` recording the ignition history.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.framework import Framework
from repro.cca.ports.go import GoPort
from repro.errors import CCAError
from repro.components import (
    CvodeComponent,
    DPDt,
    Initializer,
    ProblemModeler,
    StatisticsComponent,
    ThermoChemistry,
)
from repro.obs import trace as _trace
from repro.resilience.hooks import CHECKPOINT_PARAMS, CheckpointHook


class _Go(GoPort):
    def __init__(self, owner: "Ignition0DDriver") -> None:
        self.owner = owner

    def go(self) -> dict[str, Any]:
        return self.owner.run()


class Ignition0DDriver(Component):
    """Drives the 0D ignition assembly.

    Uses ``ic`` (VectorICPort), ``solver`` (ODESolverPort), ``model``
    (VectorRHSPort, the ProblemModeler), ``chem`` (ChemistryPort),
    ``stats`` (StatisticsPort).  Parameters: ``t_end`` (1e-3 s),
    ``n_output`` (20 history points).
    """

    PARAMS = (
        Param("t_end", "float", 0.001, min=1e-09, max=10.0),
        Param("n_output", "int", 20, min=1),
    ) + CHECKPOINT_PARAMS

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("ic", "VectorICPort")
        services.register_uses_port("solver", "ODESolverPort")
        services.register_uses_port("model", "VectorRHSPort")
        services.register_uses_port("chem", "ChemistryPort")
        services.register_uses_port("stats", "StatisticsPort")
        services.add_provides_port(_Go(self), "go")

    def run(self) -> dict[str, Any]:
        services = self.services
        mech = services.ports.chem.mechanism()
        t_end = services.get_parameter("t_end")
        n_out = services.get_parameter("n_output")

        y = services.ports.ic.initial_state()  # [T, Y..., P]
        T0, P0 = float(y[0]), float(y[-1])
        rho = services.ports.model.configure(T0, P0, y[1:-1])
        solver = services.ports.solver
        t = 0.0
        start_k = 0
        # mesh-less assembly: the state vector rides in checkpoint extras
        hook = CheckpointHook(services, mesh_uses=None)
        resumed = hook.resume()
        if resumed is not None:
            # the solver's kept trajectory came back with its checkpoint
            start_k, t = resumed.step, resumed.t
            y = np.asarray(resumed.extras["y"], dtype=float)
            nfe = int(resumed.extras["nfe"])
        else:
            services.ports.stats.record("T", 0.0, T0)
            services.ports.stats.record("P", 0.0, P0)
            # one solver for the whole run: every output continues it
            solver.start(t, y)
            nfe = solver.last_nfe()
        for k in range(start_k + 1, n_out + 1):
            # driver.step spans are the flamegraph roots the sampling
            # profiler attributes component time under
            with _trace.span("driver.step", "driver", step=k):
                t_next = t_end * k / n_out
                y = solver.continue_to(t_next)
                nfe += solver.last_nfe()
                t = t_next
                services.ports.stats.record("T", t, float(y[0]))
                services.ports.stats.record("P", t, float(y[-1]))
                # the state rides in the checkpoint: built only for one
                extras = ({"y": [float(v) for v in y], "nfe": nfe}
                          if hook.saves(k) else None)
                hook.after_step(k, t, extras=extras)
        T_final, Y_final, P_final = float(y[0]), y[1:-1], float(y[-1])
        i_h2o = mech.species_index("H2O")
        return {
            "T0": T0,
            "P0": P0,
            "rho": rho,
            "T_final": T_final,
            "P_final": P_final,
            "Y_final": Y_final,
            "Y_H2O_final": float(Y_final[i_h2o]),
            "nfe": nfe,
            "history_T": services.ports.stats.series("T"),
            "history_P": services.ports.stats.series("P"),
        }


#: component classes of this assembly
IGNITION0D_COMPONENTS = [
    Initializer,
    ThermoChemistry,
    ProblemModeler,
    DPDt,
    CvodeComponent,
    StatisticsComponent,
    Ignition0DDriver,
]


def build_ignition0d(framework: Framework, mechanism: str = "h2-air",
                     T0: float = 1000.0, P0: float = 101325.0,
                     t_end: float = 1e-3, rtol: float = 1e-8,
                     atol: float = 1e-12) -> None:
    """Instantiate and wire the 0D ignition assembly (Fig. 1)."""
    framework.registry.register_many(IGNITION0D_COMPONENTS)
    for cls, name in [
        (Initializer, "Initializer"),
        (ThermoChemistry, "ThermoChemistry"),
        (ProblemModeler, "problemModeler"),
        (DPDt, "dPdt"),
        (CvodeComponent, "CvodeComponent"),
        (StatisticsComponent, "Statistics"),
        (Ignition0DDriver, "Driver"),
    ]:
        framework.instantiate(cls.__name__, name)
    framework.set_parameter("ThermoChemistry", "mechanism", mechanism)
    framework.set_parameter("Initializer", "T0", T0)
    framework.set_parameter("Initializer", "P0", P0)
    framework.set_parameter("CvodeComponent", "rtol", rtol)
    framework.set_parameter("CvodeComponent", "atol", atol)
    framework.set_parameter("Driver", "t_end", t_end)

    framework.connect("Initializer", "chem", "ThermoChemistry", "chemistry")
    framework.connect("dPdt", "chem", "ThermoChemistry", "chemistry")
    framework.connect("problemModeler", "chem", "ThermoChemistry",
                      "chemistry")
    framework.connect("problemModeler", "dpdt", "dPdt", "dpdt")
    framework.connect("CvodeComponent", "rhs", "problemModeler", "model")
    framework.connect("Driver", "ic", "Initializer", "ic")
    framework.connect("Driver", "solver", "CvodeComponent", "solver")
    framework.connect("Driver", "model", "problemModeler", "model")
    framework.connect("Driver", "chem", "ThermoChemistry", "chemistry")
    framework.connect("Driver", "stats", "Statistics", "stats")


def run_ignition0d(**kwargs) -> dict[str, Any]:
    """One-call serial run (builds a fresh framework)."""
    framework = Framework()
    build_ignition0d(framework, **kwargs)
    return framework.go("Driver")


#: Per-condition keys :func:`run_ignition0d_batch` accepts (everything
#: else is a shared setting) — the parameter family the serve batch
#: planner may vary inside one coalesced solve.
BATCH_CONDITION_KEYS = ("T0", "P0", "phi", "rate_scale")


def run_ignition0d_batch(conditions: list[dict[str, float]],
                         mechanism: str = "h2-air", t_end: float = 1e-3,
                         n_output: int = 20, rtol: float = 1e-8,
                         atol: float = 1e-12,
                         method: str = "bdf") -> list[dict[str, Any]]:
    """Solve many 0D-ignition conditions in one batched call.

    Each entry of ``conditions`` may set ``T0``, ``P0``, ``phi`` and
    ``rate_scale`` (defaults match the component parameters:
    1000 K, 1 atm, stoichiometric, unperturbed rates); everything else —
    mechanism, tolerances, output grid — is shared across the batch.

    Returns one result dict per condition, **bitwise identical** to what
    :func:`run_ignition0d` / the rc-script assembly produces for the
    same condition: the batch replays exactly the driver's arithmetic
    (the ``Initializer`` fill, ``ProblemModeler.configure`` density, one
    CVODE trajectory continued across the output times in ``CV_NORMAL``
    mode) with the conditions as the columns of one batched solver per
    rate scale, and no column's arithmetic depends on its neighbours.
    That equivalence is what lets :mod:`repro.serve` answer per-job
    requests from a coalesced solve — and cache the demultiplexed
    results under the same keys a sequential run would produce.
    """
    from repro.chemistry.h2_air import h2_air_phi
    from repro.chemistry.zerod import constant_volume_dydt
    from repro.components.thermochem import _MECHS
    from repro.integrators.cvode import CVode

    n_out = int(n_output)
    nbatch = len(conditions)
    if nbatch == 0:
        return []
    try:
        base_mech = _MECHS[mechanism]()
    except KeyError:
        raise CCAError(
            f"unknown mechanism {mechanism!r}; have {sorted(_MECHS)}"
        ) from None
    # one scaled mechanism per distinct rate perturbation in the batch
    mechs = {1.0: base_mech}
    rows: list[np.ndarray] = []
    rhos: list[float] = []
    scales: list[float] = []
    for cond in conditions:
        unknown = set(cond) - set(BATCH_CONDITION_KEYS)
        if unknown:
            raise CCAError(
                f"unknown batch condition keys {sorted(unknown)} "
                f"(have: {list(BATCH_CONDITION_KEYS)})")
        T0 = float(cond.get("T0", 1000.0))
        P0 = float(cond.get("P0", 101325.0))
        phi = float(cond.get("phi", 1.0))
        scale = float(cond.get("rate_scale", 1.0))
        if not all(0.0 < v < np.inf for v in (T0, P0, phi, scale)):
            raise CCAError(
                f"batch condition values must be positive and finite, "
                f"got {cond}")
        if scale not in mechs:
            mechs[scale] = base_mech.scaled(scale)
        mech = mechs[scale]
        # the Initializer fill, operation for operation
        Y = np.zeros(mech.n_species)
        for nm, val in h2_air_phi(phi).items():
            if nm in mech.names:
                Y[mech.species_index(nm)] = val
        Y /= Y.sum()
        rows.append(np.concatenate(([T0], Y, [P0])))
        # ProblemModeler.configure: rho fixed from the initial fill
        rhos.append(float(mech.density(T0, P0, Y)))
        scales.append(scale)

    states = np.array(rows)
    rho_arr = np.asarray(rhos, dtype=float)
    hist_T: list[list[tuple[float, float]]] = [
        [(0.0, float(r[0]))] for r in rows]
    hist_P: list[list[tuple[float, float]]] = [
        [(0.0, float(r[-1]))] for r in rows]
    groups: dict[float, list[int]] = {}
    for i, scale in enumerate(scales):
        groups.setdefault(scale, []).append(i)

    def vessels(mech):
        return lambda t, y, rho: constant_volume_dydt(mech, rho, y)

    # one solver per rate scale, its columns that group's conditions
    solvers = {scale: CVode(vessels(mechs[scale]), 0.0,
                            np.ascontiguousarray(states[idx].T),
                            args=(rho_arr[idx],), rtol=rtol, atol=atol,
                            method=method)
               for scale, idx in groups.items()}
    for k in range(1, n_out + 1):
        with _trace.span("driver.step", "driver", step=k, batch=nbatch):
            t = t_end * k / n_out
            for scale, idx in groups.items():
                states[idx] = solvers[scale].integrate_to(t, stop=False).T
            for i in range(nbatch):
                hist_T[i].append((t, float(states[i][0])))
                hist_P[i].append((t, float(states[i][-1])))
    nfe = np.zeros(nbatch, dtype=int)
    for scale, idx in groups.items():
        nfe[idx] = solvers[scale].stats.nfe

    results: list[dict[str, Any]] = []
    for i in range(nbatch):
        y = states[i]
        mech = mechs[scales[i]]
        i_h2o = mech.species_index("H2O")
        Y_final = y[1:-1]
        results.append({
            "T0": float(rows[i][0]),
            "P0": float(rows[i][-1]),
            "rho": rhos[i],
            "T_final": float(y[0]),
            "P_final": float(y[-1]),
            "Y_final": Y_final,
            "Y_H2O_final": float(Y_final[i_h2o]),
            "nfe": int(nfe[i]),
            "history_T": hist_T[i],
            "history_P": hist_P[i],
        })
    return results
