"""``python -m repro.serve`` — the service front end.

Hermetic by construction: every subcommand talks to a filesystem-backed
job store under ``--root`` (default ``$REPRO_SERVE_ROOT`` or
``.repro_serve``), so *submit now, run later, query after* compose
across separate invocations with no daemon and no network::

    python -m repro.serve submit examples/ignition0d.rc \\
        --param Initializer.T0=1100 --tenant alice
    python -m repro.serve sweep examples/ignition0d.rc \\
        --grid Initializer.T0=1000:1150:12 --tenant alice --run
    python -m repro.serve run                  # execute everything queued
    python -m repro.serve status j-000001
    python -m repro.serve result j-000001
    python -m repro.serve stats

Grid values are either comma lists (``bdf,adams``) or
``start:stop:count`` linear spans (``1000:1150:12``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

import numpy as np

from repro.errors import ReproError, ServeError
from repro.resilience.runner import parse_fault_spec
from repro.serve import jobs as J
from repro.serve.service import SimulationService, load_script

DEFAULT_ROOT = ".repro_serve"


def _root(args: argparse.Namespace) -> str:
    return args.root or os.environ.get("REPRO_SERVE_ROOT", DEFAULT_ROOT)


def _parse_param(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ServeError(
            f"bad --param {item!r} (expected Instance.key=value)")
    key, value = item.split("=", 1)
    return key.strip(), value.strip()


def _parse_grid_values(spec: str) -> list[Any]:
    """``a,b,c`` enumerations or ``start:stop:count`` linear spans."""
    parts = spec.split(":")
    if len(parts) == 3:
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            pass
        else:
            if n < 1:
                raise ServeError(f"grid span {spec!r} needs count >= 1")
            return [float(v) for v in np.linspace(lo, hi, n)]
    return [v.strip() for v in spec.split(",") if v.strip()]


def _print_json(doc: Any) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _service(args: argparse.Namespace, *,
             autostart: bool) -> SimulationService:
    return SimulationService(_root(args), workers=getattr(args, "workers", 2),
                             batch_size=getattr(args, "batch_size", 8),
                             autostart=autostart,
                             admission=not getattr(args, "no_admission",
                                                   False))


def _submit_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    if args.fault:
        parse_fault_spec(args.fault)  # fail fast on a bad spec
    return {
        "tenant": args.tenant,
        "priority": args.priority,
        "nprocs": args.nprocs,
        "retries": args.retries,
        "backoff": args.backoff,
        "fault": args.fault,
        "use_cache": not args.no_cache,
        "backend": args.backend,
    }


def _drain_and_report(svc: SimulationService, job_ids: list[str]) -> int:
    svc.drain()
    failed = [j for j in job_ids
              if svc.status(j)["state"] == J.FAILED]
    for job_id in failed:
        print(f"{job_id}: FAILED: {svc.status(job_id)['error']}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    script = load_script(None, args.script)
    params = dict(_parse_param(p) for p in args.param)
    with _service(args, autostart=args.run) as svc:
        job_id = svc.submit(script, params=params, **_submit_kwargs(args))
        print(job_id)
        if args.run:
            return _drain_and_report(svc, [job_id])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    script = load_script(None, args.script)
    params = dict(_parse_param(p) for p in args.param)
    grid: dict[str, list[Any]] = {}
    for item in args.grid:
        key, spec = _parse_param(item)
        grid[key] = _parse_grid_values(spec)
    with _service(args, autostart=args.run) as svc:
        job_ids = svc.sweep(script, grid, params=params,
                            **_submit_kwargs(args))
        for job_id in job_ids:
            print(job_id)
        if args.run:
            return _drain_and_report(svc, job_ids)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with _service(args, autostart=False) as svc:
        queued = svc.start()  # recovery happens here, not in __init__
        code = _drain_and_report(svc, queued)
        done = sum(1 for j in queued if svc.status(j)["state"] == J.DONE)
        print(f"processed {len(queued)} job(s): {done} done, "
              f"{len(queued) - done} not done")
        return code


def _cmd_status(args: argparse.Namespace) -> int:
    with _service(args, autostart=False) as svc:
        if args.job_id:
            _print_json(svc.status(args.job_id))
        else:
            _print_json([r.to_json() for r in svc.store.records()])
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    with _service(args, autostart=False) as svc:
        _print_json(svc.result(args.job_id))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    with _service(args, autostart=False) as svc:
        ok = svc.cancel(args.job_id)
        print(f"{args.job_id}: {'cancelled' if ok else 'not cancellable'}")
        return 0 if ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    with _service(args, autostart=False) as svc:
        payload = svc.stats()
    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(args.out)
    else:
        _print_json(payload)
    return 0


def _add_submit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", action="append", default=[],
                   metavar="Instance.key=value",
                   help="parameter override (repeatable)")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--nprocs", type=int, default=1)
    p.add_argument("--retries", type=int, default=0)
    p.add_argument("--backoff", type=float, default=0.0)
    p.add_argument("--fault", default="",
                   help="fault-injection spec (key=value[,key=value...])")
    p.add_argument("--backend", default="",
                   help="execution backend: threads | mp "
                        "(default: the service default, $REPRO_BACKEND "
                        "then threads); unknown names are rejected at "
                        "admission (RA419)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed result cache")
    p.add_argument("--no-admission", action="store_true",
                   help="skip the RA41x static admission gate (contract "
                        "pass over script + overrides at submit)")
    p.add_argument("--run", action="store_true",
                   help="execute immediately instead of only queueing")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant simulation service over a filesystem "
                    "job store.")
    parser.add_argument("--root", default=None,
                        help=f"service root (default: $REPRO_SERVE_ROOT "
                             f"or {DEFAULT_ROOT})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="queue one job")
    p.add_argument("script", help="rc-script path")
    _add_submit_options(p)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("sweep", help="queue a parameter-grid job family")
    p.add_argument("script", help="rc-script path")
    p.add_argument("--grid", action="append", required=True,
                   metavar="Instance.key=v1,v2|lo:hi:n",
                   help="sweep axis (repeatable; cartesian product)")
    _add_submit_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run", help="execute every queued job, then exit")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("status", help="job record(s) as JSON")
    p.add_argument("job_id", nargs="?", default=None)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("result", help="stored result of a finished job")
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("cancel", help="cancel a still-queued job")
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("stats", help="service statistics "
                                     "(schema-1 metrics envelope)")
    p.add_argument("--out", default=None, help="write JSON here instead "
                                               "of stdout")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
