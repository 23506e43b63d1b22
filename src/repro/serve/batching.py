"""The batching planner: which queued jobs may share one solve.

A job is *batchable* when its effective script (overrides applied) is
recognizably the canonical 0D-ignition assembly — the same seven
component classes, the same ten connections, one ``go`` on the driver —
and every ``parameter`` directive belongs to a known family:

* **conditions** (may differ across the batch): ``Initializer`` T0 / P0 /
  phi, ``ThermoChemistry`` rate_scale;
* **settings** (must match for jobs to coalesce): mechanism, rtol,
  atol, method, t_end, n_output.

The plan hashes the settings into a *group key*; the scheduler coalesces
queued jobs sharing a group key into one
:func:`repro.apps.ignition0d.run_ignition0d_batch` call and demuxes the
per-condition results.  Anything the template does not recognize —
renamed instances are fine (matching is by *class*), but an extra
component, an unknown parameter (e.g. checkpointing knobs), a fault
spec — yields ``None`` and the job simply runs sequentially through the
full framework.  Batching is an optimization with a bitwise-equivalence
contract, never a semantic fork.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.contracts import AssemblyModel, model_from_script
from repro.apps.ignition0d import Ignition0DDriver
from repro.cca.component import declared_params
from repro.components.cvode_component import CvodeComponent
from repro.components.thermochem import ThermoChemistry
from repro.errors import ServeError
from repro.serve.jobs import canonical_params

BATCH_SCHEMA = 1

#: classes of the canonical assembly, each instantiated exactly once
_CLASSES = frozenset({
    "Initializer", "ThermoChemistry", "ProblemModeler", "DPDt",
    "CvodeComponent", "StatisticsComponent", "Ignition0DDriver",
})

#: the assembly's wiring, expressed over classes (instance names are free)
_CONNECTS = frozenset({
    ("Initializer", "chem", "ThermoChemistry", "chemistry"),
    ("DPDt", "chem", "ThermoChemistry", "chemistry"),
    ("ProblemModeler", "chem", "ThermoChemistry", "chemistry"),
    ("ProblemModeler", "dpdt", "DPDt", "dpdt"),
    ("CvodeComponent", "rhs", "ProblemModeler", "model"),
    ("Ignition0DDriver", "ic", "Initializer", "ic"),
    ("Ignition0DDriver", "solver", "CvodeComponent", "solver"),
    ("Ignition0DDriver", "model", "ProblemModeler", "model"),
    ("Ignition0DDriver", "chem", "ThermoChemistry", "chemistry"),
    ("Ignition0DDriver", "stats", "StatisticsComponent", "stats"),
})

#: (class, parameter) -> per-job condition name
_CONDITION_KEYS = {
    ("Initializer", "T0"): "T0",
    ("Initializer", "P0"): "P0",
    ("Initializer", "phi"): "phi",
    ("ThermoChemistry", "rate_scale"): "rate_scale",
}

#: (class, parameter) -> (setting name, converter)
_SETTING_KEYS = {
    ("ThermoChemistry", "mechanism"): ("mechanism", str),
    ("CvodeComponent", "rtol"): ("rtol", float),
    ("CvodeComponent", "atol"): ("atol", float),
    ("CvodeComponent", "method"): ("method", str),
    ("Ignition0DDriver", "t_end"): ("t_end", float),
    ("Ignition0DDriver", "n_output"): ("n_output", int),
}

#: shared-setting defaults: each parameter's default as its class declares it
DEFAULT_SETTINGS = {
    name: conv(declared_params(cls)[key].default)
    for cls in (ThermoChemistry, CvodeComponent, Ignition0DDriver)
    for (owner, key), (name, conv) in _SETTING_KEYS.items()
    if owner == cls.__name__}


@dataclass(frozen=True)
class BatchPlan:
    """One job's membership card for a coalesced solve."""

    #: jobs with equal group keys may share one batched call
    group_key: str
    #: kwargs for :func:`repro.apps.ignition0d.run_ignition0d_batch`
    settings: dict[str, Any] = field(hash=False)
    #: this job's row of the batch (T0 / P0 / phi / rate_scale)
    condition: dict[str, float] = field(hash=False)


def plan_for(script: str | AssemblyModel,
             params: Mapping[str, Any] | None = None) -> BatchPlan | None:
    """A :class:`BatchPlan` when (script, params) is the canonical
    0D-ignition assembly with only recognized parameters; else None.
    ``script`` may be given as its already-built model.

    The settings are those the run will see: parameter lines before the
    ``go``, then the overrides (which :func:`apply_overrides` writes
    there), then the inert lines after it, each replacing the last."""
    model = script if isinstance(script, AssemblyModel) \
        else model_from_script(script)
    if model.syntax_errors or len(model.gos) != 1:
        return None  # one go, and a script the runner can parse
    try:
        overrides = canonical_params(params)
    except ServeError:
        return None
    class_of: dict[str, str] = {}
    for cls, instance, _line in model.instantiations:
        if instance in class_of:
            return None  # duplicate instance name: not the template
        class_of[instance] = cls
    connects = {c[:4] for c in model.connections}
    go_instance, go_port, go_line = model.gos[0]
    parameters = {(i, k): v for i, k, v, line in model.parameters
                  if line < go_line}
    for dotted, value in overrides.items():
        instance, key = dotted.split(".", 1)
        parameters[(instance, key)] = value
    parameters.update({(i, k): v for i, k, v, line in model.parameters
                       if line > go_line})

    # shape check: exactly the seven classes, once each
    if set(class_of.values()) != _CLASSES or len(class_of) != len(_CLASSES):
        return None
    # wiring check, lifted from instances to classes
    try:
        lifted = {(class_of[u], up, class_of[p], pp)
                  for (u, up, p, pp) in connects}
    except KeyError:
        return None  # connect names an instance that was never created
    if lifted != _CONNECTS:
        return None
    # the go is on the driver's default go port
    if class_of.get(go_instance) != "Ignition0DDriver" or go_port != "go":
        return None

    settings = dict(DEFAULT_SETTINGS)
    condition: dict[str, float] = {}
    for (instance, key), value in parameters.items():
        owner = class_of.get(instance)
        if owner is None:
            return None
        ckey = _CONDITION_KEYS.get((owner, key))
        if ckey is not None:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                return None
            condition[ckey] = float(value)
            continue
        skey = _SETTING_KEYS.get((owner, key))
        if skey is None:
            return None  # unknown parameter (checkpointing, ...): bail
        name, conv = skey
        try:
            settings[name] = conv(value)
        except (TypeError, ValueError):
            return None

    blob = json.dumps({"schema": BATCH_SCHEMA, "settings": settings},
                      sort_keys=True, separators=(",", ":"))
    group_key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return BatchPlan(group_key=group_key, settings=settings,
                     condition=condition)


__all__ = ["BatchPlan", "plan_for", "DEFAULT_SETTINGS"]
