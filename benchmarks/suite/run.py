"""The repo's performance yardstick: one command, six workloads, four of
them in ``BENCHMARK.json``.

    python3 benchmarks/suite/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

runs one workload for about ``S`` seconds and prints, as the last line
of standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` (or with ``--runs K``, or with several names) it
measures a *set*: ``K`` runs per workload with seeds ``N, N+1, ...``
(plus one traced run each under ``--trace 1``), printed as one JSON
document and written to ``--out`` — the input of ``compare.py``.

How a run is measured: every repetition is a fresh subprocess
(``worker.py``); one discarded set-up-only repetition first, then timed
repetitions until ``S`` seconds have passed; each end-to-end metric is
the best repetition (see ``run_once``), printed beside the median and
quartiles.  Tracing is off for the end-to-end numbers.  A
traced run alternates untraced and traced repetitions and ends with the
layer micro-timings, which take ``LAYERS_SECONDS`` of the ``S``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

from summary import percentile, quartiles, spread

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORK_ROOT = os.path.join(HERE, "_work")   # removed after every run
OUT_DIR = os.path.join(HERE, "_out")      # span dumps of traced runs

#: instruments and size switches that would make a timed run measure
#: something else
FORBIDDEN_ENV = ("REPRO_TRACE", "REPRO_PROFILE", "REPRO_TSAN", "REPRO_FAST")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 120
#: what the layer micro-timings of a traced run take; that much of
#: ``--seconds`` is theirs
LAYERS_SECONDS = 10.0
RESULT_TOLERANCE = 1e-6
SCMD_RANKS = 2
#: workloads of the issue that ``BENCHMARK.json`` leaves out, because the
#: driver's time cap pays for four workloads of 28 s or six of 18 s, and
#: runs of 18 s did not stay within the bounds on the build host; name
#: them with ``--workload``
EXTRA_WORKLOADS = ("flame_diffusion_amr", "scmd_threads")
#: the benchmark-side spans of ``workloads.py``; each gives a
#: ``<name>.self_pct`` metric
SPAN_LAYERS = ("components.implicit", "components.explicit", "components.rk2",
               "components.regrid", "components.ghost", "components.other",
               "exec.mpirun", "serve.submit", "serve.drain", "serve.result")


class Refused(Exception):
    """The run cannot start or produced nothing to report."""


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict[str, Any]:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_environment() -> None:
    armed = [k for k in FORBIDDEN_ENV
             if os.environ.get(k, "").strip().lower()
             not in ("", "0", "false", "no", "off")]
    if armed:
        raise Refused(
            f"refusing to measure with {', '.join(armed)} set: the "
            f"benchmark arms tracing itself in the traced run and times "
            f"everything else with the instruments off and sizes full")


def header(seed: int) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit or "unknown",
        "seed": seed,
        "seed_note": "the seed draws the serve T0 values and their order "
                     "and the layer micro-timings' input arrays; "
                     "the simulation configurations are the paper's and "
                     "do not depend on it",
    }


# ------------------------------------------------------------ one worker
class Runner:
    """Starts workers for one workload and keeps what they report."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.work_dir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        self.env = dict(os.environ, **PINNED_ENV)
        # the warm-up repetition must be able to leave bytecode behind
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(REPO, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def __enter__(self) -> "Runner":
        os.makedirs(self.work_dir, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    def note(self, text: str) -> None:
        self.notes.append(text)
        print(f"# {self.workload}: {text}", file=sys.stderr)

    def spawn(self, mode: str) -> dict[str, Any] | None:
        """One worker; None when it died or printed no result."""
        spans_out = ""
        if mode == "traced":
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_out = os.path.join(OUT_DIR, f"spans-{self.workload}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--work-dir", self.work_dir,
               "--spans-out", spans_out,
               "--spawned-at", repr(time.time())]
        if self.tiny:
            cmd.append("--tiny")
        shm_before = _shm_segments()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.note(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self.note(f"{mode} worker exited {proc.returncode}: "
                      + proc.stderr.strip()[-2000:])
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        # nothing may outlive a repetition: no shared-memory segment, no
        # serve root
        leaked = sorted(_shm_segments() - shm_before)
        left = os.listdir(self.work_dir)
        if leaked or left:
            self.note(f"left behind: shm {leaked}, work dir {left}")
            out["failed"] = out.get("failed", 0) + 1
            for name in left:
                path = os.path.join(self.work_dir, name)
                shutil.rmtree(path) if os.path.isdir(path) \
                    else os.unlink(path)
        return out

    def warm_up(self) -> None:
        """The discarded repetition: compiles bytecode, fills the page
        cache, and fails fast when the program is not there."""
        if self.spawn("setup") is None:
            raise Refused(f"{self.workload}: the warm-up worker failed")

    def repeat(self, modes: tuple[str, ...], seconds: float,
               reps: int | None) -> dict[str, list[dict[str, Any]]]:
        """Rounds of one repetition per mode: exactly ``reps`` rounds,
        or as many as fit ``seconds`` (another round starts only while
        at least half of it still fits)."""
        done: dict[str, list[dict[str, Any]]] = {m: [] for m in modes}
        begin = time.monotonic()
        rounds = 0
        while True:
            for mode in modes:
                out = self.spawn(mode)
                if out is None:
                    self.attempted += 1
                    self.failed += 1
                else:
                    done[mode].append(out)
            rounds += 1
            elapsed = time.monotonic() - begin
            if reps is not None:
                if rounds >= reps:
                    break
            elif elapsed + 0.5 * elapsed / rounds > seconds:
                break
        if not all(done.values()):
            raise Refused(f"{self.workload}: no repetition succeeded")
        return done

    # -- correctness ------------------------------------------------------
    def judge(self, out: dict[str, Any], reference: dict[str, Any]) -> float:
        """Book the repetition's operations; returns its ``result_err``
        (largest relative deviation of the physics checksum)."""
        err = float(out.get("result_err", 0.0))
        for key, want in reference.get("checksum", {}).items():
            got = out["checksum"].get(key)
            err = max(err, abs(got - want) / abs(want)
                      if got is not None else float("inf"))
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        if err > RESULT_TOLERANCE:
            self.note(f"result_err {err:.3e} > {RESULT_TOLERANCE}")
            self.failed += 1
        for key, want in reference.get("counts", {}).items():
            if out["counts"].get(key) != want:
                self.note(f"count drift: {key} = {out['counts'].get(key)}, "
                          f"reference {want}")
        return err


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------- the metrics
def end_to_end(timed: list[dict[str, Any]], reference: dict[str, Any]
               ) -> dict[str, list[float]]:
    """Per-repetition samples of every end-to-end metric."""
    # the exact sum of cells over steps comes from the reference march
    # when the run reproduced the reference, else from steps x cells
    def work(out: dict[str, Any]) -> float:
        if reference and out["counts"] == reference.get("counts"):
            return reference["work"]
        return out["work"]

    return {
        "wall_s": [o["wall_s"] for o in timed],
        "setup_s": [o["setup_s"] for o in timed],
        "cpu_s": [o["cpu_s"] for o in timed],
        "peak_rss_mb": [o["peak_rss_mb"] for o in timed],
        "work_per_s": [work(o) / o["wall_s"] for o in timed],
    }


def per_layer(timed: list[dict[str, Any]], traced: list[dict[str, Any]],
              layers: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric: span shares, unit latencies and exact
    counts of this workload's traced repetitions (medians), plus the
    workload-independent micro-timings."""
    med = statistics.median
    traced_wall = med([t["wall_s"] for t in traced])
    untraced_wall = med([t["wall_s"] for t in timed])
    out = dict(layers)
    out.update({
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "obs.trace_overhead_pct":
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "accounted_frac": med([t["spans"]["accounted_frac"] for t in traced]),
    })
    for layer in SPAN_LAYERS:
        out[f"{layer}.self_pct"] = med([
            100.0 * t["spans"]["self_s"].get(layer, 0.0) / t["spans"]["wall_s"]
            for t in traced])
    # time inside the program's own Comm and ghost-exchange spans (they
    # run inside explicit.advance, out of reach of the benchmark's spans)
    out["mpi.comm_pct"] = med([
        100.0 * t["program_spans"]["mpi_s"] / (SCMD_RANKS * t["wall_s"])
        for t in traced])
    out["samr.ghost_exchange_pct"] = med([
        100.0 * t["program_spans"]["ghost_s"] / t["wall_s"] for t in traced])
    # unit latency: jobs as the client saw them with tracing off, coarse
    # steps from the traced march (the only place steps are visible)
    units = [ms for o in timed for ms in o.get("unit_ms", [])] \
        or [ms for t in traced for ms in t["spans"]["unit_ms"]]
    out["op_latency_p50_ms"] = percentile(units, 50)
    out["op_latency_p95_ms"] = percentile(units, 95)

    last = traced[-1]
    registry, extra = last["registry"], last.get("extra", {})
    for name in ("integrators.cvode.steps", "integrators.cvode.rhs_evals",
                 "integrators.rkc.stages", "integrators.rkc.rhs_evals",
                 "samr.ghost_exchanges", "samr.ghost_bytes", "samr.regrids",
                 "mpi.sends", "mpi.bytes_sent", "mpi.collectives"):
        out[name] = registry[name]
    integrated = extra.get("cells_integrated", 0)
    out["integrators.cvode.cells_integrated"] = integrated
    out["integrators.cvode.cells_skipped"] = \
        extra.get("cells_offered", 0) - integrated
    out["samr.cells_final"] = last["counts"].get("total_cells", 0)
    out["samr.patches_final"] = extra.get("patches_final", 0)
    serve = last.get("serve", {})
    for key in ("batch_occupancy_mean", "cache_hit_ratio", "jobs_failed",
                "cached_roundtrip_ms"):
        out[f"serve.{key}"] = serve.get(key, 0)
    return out


def drift_warnings(runner: Runner, traced: dict[str, Any],
                   reference: dict[str, Any]) -> None:
    for key, want in reference.get("exact", {}).items():
        got = {**traced["registry"], **traced.get("extra", {})}.get(key)
        if got != want:
            runner.note(f"count drift: {key} = {got}, reference {want}")


# --------------------------------------------------------------- one run
def run_once(spec: dict[str, Any], reference: dict[str, Any], workload: str,
             seed: int, seconds: float, trace: bool, reps: int | None,
             tiny: bool) -> dict[str, Any]:
    """One contract run: the result object plus quartiles per metric."""
    ref = {} if tiny else reference.get(workload, {})
    with Runner(workload, seed, tiny) as runner:
        runner.warm_up()
        if trace:
            done = runner.repeat(("timed", "traced"),
                                 max(seconds - LAYERS_SECONDS, 0.0), reps)
            layers = runner.spawn("layers")
            if layers is None:
                raise Refused(f"{workload}: the layers worker failed")
            for out in done["timed"] + done["traced"]:
                runner.judge(out, ref)
            drift_warnings(runner, done["traced"][-1], ref)
            values = per_layer(done["timed"], done["traced"], layers)
            declared = spec["per_layer"]
            samples = {k: [v] for k, v in values.items()}
        else:
            done = runner.repeat(("timed",), seconds, reps)
            errs = [runner.judge(out, ref) for out in done["timed"]]
            samples = end_to_end(done["timed"], ref)
            declared = spec["end_to_end"]
            print(f"# {workload}: result_err {max(errs):.3e}, failed_frac "
                  f"{runner.failed}/{runner.attempted}")
        names = {m["name"] for m in declared}
        if names != set(samples):
            raise Refused(f"metrics differ from BENCHMARK.json: "
                          f"{sorted(names ^ set(samples))}")
        # The value of a run is its best repetition, not the median: what
        # disturbs a repetition on a shared host (a neighbour on the core,
        # a slower clock) only ever slows it, in spells of seconds to
        # minutes, so the median of a run follows the spells and the best
        # repetition follows the program.  Measured on two 10-run sets of
        # flame_cvode: run-to-run spread 0.23 and 0.08 with medians, 0.05
        # and 0.02 with the best (README, "End-to-end metrics").
        metrics, detail = {}, {}
        for m in declared:
            values = samples[m["name"]]
            best = min(values) if m["better"] == "lower" else max(values)
            q1, q2, q3 = quartiles(values)
            metrics[m["name"]] = {"value": best, "unit": m["unit"]}
            detail[m["name"]] = {"q1": q1, "median": q2, "q3": q3,
                                 "samples": values}
            print(f"{workload:20s} {m['name']:38s} {best:14.6g} "
                  f"{m['unit']:6s} median {q2:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"n={len(values)}")
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
            "detail": detail,
            "notes": runner.notes,
        }


# ----------------------------------------------------------------- a set
def run_set(spec: dict[str, Any], reference: dict[str, Any],
            workloads: list[str], args: argparse.Namespace) -> dict[str, Any]:
    doc: dict[str, Any] = {"header": header(args.seed), "runs": {},
                           "traced": {}}
    for workload in workloads:
        doc["runs"][workload] = []
        for k in range(args.runs):
            result = run_once(spec, reference, workload, args.seed + k,
                              args.seconds, False, args.reps, args.tiny)
            result["seed"] = args.seed + k
            doc["runs"][workload].append(result)
        if args.trace:
            doc["traced"][workload] = run_once(
                spec, reference, workload, args.seed, args.seconds, True,
                args.reps, args.tiny)
    wall = {w: statistics.median(r["metrics"]["wall_s"]["value"]
                                 for r in runs)
            for w, runs in doc["runs"].items()}
    if {"scmd_threads", "scmd_mp"} <= set(wall):
        doc["derived"] = {"exec.mp_over_threads": {
            "value": wall["scmd_mp"] / wall["scmd_threads"], "unit": "ratio",
            "base": "scmd_mp.wall_s / scmd_threads.wall_s"}}
    if args.runs > 1:
        print_spreads(spec, doc)
    return doc


def print_spreads(spec: dict[str, Any], doc: dict[str, Any]) -> None:
    """Run-to-run spread of each end-to-end metric against its bound."""
    print(f"\n{'workload':20s} {'metric':12s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, runs in doc["runs"].items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            flag = "" if s <= m["bound"] / 3 else \
                "  > bound/3" if s <= m["bound"] else "  > BOUND"
            print(f"{workload:20s} {m['name']:12s} "
                  f"{statistics.median(values):12.6g} {s:8.4f} "
                  f"{m['bound']:6.2f}{flag}")


# ------------------------------------------------------------- reference
def record_reference(spec: dict[str, Any], workloads: list[str],
                     seed: int) -> None:
    """Pin each simulation's checksum and exact counts: one traced
    repetition per workload, written to ``reference.json``."""
    reference = load_reference()
    for workload in workloads:
        with Runner(workload, seed, tiny=False) as runner:
            runner.warm_up()
            traced = runner.repeat(("traced",), 0.0, 1)["traced"][0]
        if not traced["checksum"]:
            continue  # serve: inputs follow the seed, checked per run
        exact = {**traced["registry"], **traced["extra"]}
        reference[workload] = {
            "checksum": traced["checksum"], "counts": traced["counts"],
            "work": traced["work"], "exact": exact,
        }
        print(f"{workload}: {json.dumps(reference[workload])}")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", nargs="+", default=names,
                        choices=names + list(EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many repetitions per run "
                             "instead of filling --seconds")
    parser.add_argument("--runs", type=int, default=None,
                        help="measure a set: this many runs per workload")
    parser.add_argument("--out", help="write the set document here")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (no reference check)")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        check_environment()
        selected = args.workload
        if args.record_reference:
            record_reference(spec, selected, args.seed)
            return 0
        reference = load_reference()
        if len(selected) == 1 and args.runs is None:
            result = run_once(spec, reference, selected[0], args.seed,
                              args.seconds, bool(args.trace), args.reps,
                              args.tiny)
            print("# " + json.dumps(header(args.seed)))
            print(json.dumps({k: result[k] for k in (
                "correct", "attempted", "failed", "metrics")}))
            return 0
        args.runs = args.runs or 1
        doc = run_set(spec, reference, selected, args)
        text = json.dumps(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
        return 0
    except Refused as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
