"""One pass of one workload in a fresh process; prints one JSON line.

Started by ``run.py`` with ``--spawned-at`` set to the parent's monotonic
clock just before the process was created, so ``setup_s`` covers process
start, ``import wfact`` and input generation, up to the first op.  Every op
runs once, in the workload's seeded order; the checks and the digest follow
outside the timed region.  With ``--trace 1`` the wfact functions are wrapped
before the inputs are built and the spans are written to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_info() -> dict:
    import numpy
    from wfact import _kernels

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.BACKEND,
        "machine": platform.machine(),
    }


def run_ops(ops, sampler=None) -> tuple[dict, list]:
    """Time every op in order; returns the pass record and the outputs.

    With a ``calib.Sampler`` the latencies are scaled to the reference host
    (see ``calib.py``), the sampler's own time taken out, and ``wall_s`` is
    their sum; without one they are the raw perf_counter times.
    """
    spans: list[tuple[str, float, float, float]] = []  # key, t0, t1, seconds
    outputs = []
    clock = time.perf_counter
    if sampler is not None:
        sampler.start()
    start = clock()
    for op in ops:
        busy = sampler.busy if sampler is not None else 0.0
        t0 = clock()
        try:
            out, error = op.call(), None
        except Exception:  # the op failed; keep going and count it
            out, error = None, traceback.format_exc(limit=3)
        t1 = clock()
        taken = sampler.busy - busy if sampler is not None else 0.0
        spans.append((op.key, t0, t1, t1 - t0 - taken))
        outputs.append((out, error))
    wall_s = clock() - start
    raw_s = sum(s for _, _, _, s in spans)
    if sampler is not None:
        sampler.stop()
        latency = {key: s * sampler.scale(t0, t1) for key, t0, t1, s in spans}
        wall_s = sum(latency.values())
    else:
        latency = {key: s for key, _, _, s in spans}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"latency": latency, "wall_s": wall_s, "raw_wall_s": raw_s, "rss_mb": rss_mb}, outputs


def check_ops(ops, outputs: list, record: dict, thorough: bool = True) -> dict:
    """Check every output and digest it; an op with any problem failed."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    stats: dict[str, float] = {}
    failed_keys: list[str] = []
    for op, (out, error) in zip(ops, outputs):
        if error is not None:
            found = [error.strip().splitlines()[-1]]
        else:
            try:
                verdict = op.check(out, thorough)
            except Exception:  # a malformed output is a failed op
                found = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
            else:
                found = list(verdict.problems)
                digests[op.key] = verdict.digest
                for name, value in verdict.stats.items():
                    stats[name] = max(stats.get(name, value), value)
        if found:
            failed_keys.append(op.key)
            problems.extend(f"{op.key}: {p}" for p in found)
    record.update(attempted=len(ops), failed_keys=failed_keys, problems=problems[:10],
                  digests=digests, stats=stats)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--thorough", action="store_true",
                        help="run the costly checks too (the first pass of a run)")
    parser.add_argument("--spans-out")
    parser.add_argument("--calibrate", action="store_true",
                        help="scale the op times to the reference host (calib.py)")
    args = parser.parse_args(argv)

    import wfact
    import wfact.cli  # noqa: F401  (not imported by the package itself)

    if not Path(wfact.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"wfact imported from {wfact.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.build(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    import calib

    # The host's speed right after set-up; run.py adds its own samples from
    # just before the spawn and scales setup_s by their median.
    setup_ref = calib.reference_times()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_ref}))
        return 0
    sampler = None
    if tracer is not None:
        tracer.mark_ops_start()
    elif args.calibrate:
        sampler = calib.Sampler()
    record, outputs = run_ops(ops, sampler)
    if tracer is not None:
        tracer.uninstall()
    record = check_ops(ops, outputs, record, args.thorough)
    record.update(setup_s=setup_s, setup_ref=setup_ref, host=host_info())
    if tracer is not None:
        layers, accounting = tracer.metrics(record["wall_s"], record["stats"])
        record.update(layers=layers, accounting=accounting)
        if args.spans_out:
            tracer.write(Path(args.spans_out))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
