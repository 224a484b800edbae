"""The wfact benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload series-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; ``src/wfact`` is imported from there.
Each pass of the workload runs in a fresh single-threaded worker process
(``worker.py``), one at a time, with a pinned environment.  Passes repeat
while the next one is expected to end within ``--seconds``; there is always
at least one.  Extra set-up-only workers top the set-up samples up to
``SETUP_SAMPLES``.  Every figure reported is a median over passes or samples.
The end-to-end times are calibrated against a fixed reference kernel timed
alongside them (``calib.py``), so that the shared host's drifting speed
cancels out; the raw pass times are printed too.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced pass, plus the
tracing overhead against one untraced pass, and the spans are written under
``.perfbench/``.  Every op's output is checked and digested by class; at
``--size full`` the digests must equal the ones in ``expected.json``.  The
costly checks run on the first pass of a run only.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("series-sweep", "oracle-verify", "oracle-window", "roots")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WFACT_KERNEL", None)
    env.pop("WFACT_CAP_W", None)
    env.update({name: "1" for name in THREAD_VARS})
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    before = calib.reference_times()
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)], env=worker_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(extra) or 'pass'} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    if "--calibrate" in extra:
        speed = statistics.median(before + record["setup_ref"])
        record["setup_s"] *= calib.REFERENCE_S / speed
    return record


def measure(args: argparse.Namespace, deadline: float) -> tuple[list[dict], dict]:
    """Untraced passes within --seconds, then the end-to-end metrics."""
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        costly_checks = [] if passes else ["--thorough"]  # once per run
        passes.append(spawn(args, deadline, "--calibrate", *costly_checks))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, deadline, "--calibrate", "--setup-only")["setup_s"])
    per_op: dict[str, list[float]] = {}
    for record in passes:
        for key, seconds in record["latency"].items():
            per_op.setdefault(key, []).append(seconds)
    op_ms = sorted(statistics.median(v) * 1e3 for v in per_op.values())
    p90 = statistics.quantiles(op_ms, n=10, method="inclusive")[8] if len(op_ms) > 1 else op_ms[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": p90,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return passes, metrics


def trace(args: argparse.Namespace, deadline: float) -> tuple[list[dict], dict]:
    """One untraced and one traced pass; the per-layer metrics of the latter."""
    base = spawn(args, deadline, "--thorough")
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json.gz"
    traced = spawn(args, deadline, "--thorough", "--trace", "1", "--spans-out", str(spans))
    metrics = dict(traced["layers"])
    metrics["trace_overhead"] = traced["wall_s"] / base["wall_s"]
    acc = traced["accounting"]
    for layer, seconds in sorted(acc["layers_s"].items(), key=lambda kv: -kv[1]):
        print(f"layer {layer} {seconds:.6f} s")
    print(f"accounting layers {acc['attributed_s']:.6f} s + unattributed "
          f"{acc['unattributed_s']:.6f} s = traced wall_s {acc['wall_s']:.6f} s "
          f"(unattributed {acc['unattributed_s'] / acc['wall_s']:.2%})")
    print(f"spans {acc['spans']} written to {spans.relative_to(ROOT)}")
    if acc["absent"]:
        print("absent " + " ".join(acc["absent"]))
    return [base, traced], metrics


def verify(passes: list[dict], expected: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): checks plus digests against the reference.

    The reference is ``expected`` when given, else the first pass.
    """
    reference = expected if expected is not None else passes[0]["digests"]
    attempted = failed = 0
    problems: list[str] = []
    for record in passes:
        attempted += record["attempted"]
        bad = set(record["failed_keys"])
        problems += record["problems"]
        for key, digest in record["digests"].items():
            if digest != reference.get(key):
                bad.add(key)
                problems.append(f"{key}: digest {digest} != {reference.get(key)}")
        if set(record["latency"]) != set(reference):
            problems.append("the ops do not cover the reference classes")
        failed += len(bad)
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long version for the benchmark's tests")
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's digests as the workload's expected ones")
    args = parser.parse_args(argv)
    if args.record_expected and args.size != "full":
        parser.error("--record-expected records the full-size digests only")
    # Turn SIGTERM into SystemExit, on which subprocess.run kills and reaps
    # the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "wfact" / "__init__.py").is_file():
        print(f"error: no wfact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not all(compileall.compile_dir(d, quiet=1) for d in (ROOT / "src", HERE)):
        print("error: wfact sources do not compile", file=sys.stderr)
        return 2
    expected = None
    if args.size == "full" and not args.record_expected:
        expected = json.loads(EXPECTED.read_text()).get(args.workload)
        if expected is None:
            print(f"error: {EXPECTED.name} has no digests for {args.workload}",
                  file=sys.stderr)
            return 2
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        passes, metrics = (trace if args.trace else measure)(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = verify(passes, expected)
    units = {name: unit for name, unit in END_TO_END}
    if args.trace:
        from tracing import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    digests = passes[0]["digests"]
    overall = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()

    print(f"passes {len(passes)} ops/pass {passes[0]['attempted']} wall_s/pass "
          + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print("uncalibrated wall_s/pass " + " ".join(f"{p['raw_wall_s']:.4f}" for p in passes))
    print("host " + json.dumps(passes[0]["host"], sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(f"metric fail_ratio {failed / attempted:.6g} ratio")
    print(f"digest {overall}")
    for problem in problems[:20]:
        print(f"problem {problem}")
    if args.record_expected and not problems:
        table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        table[args.workload] = dict(sorted(digests.items()))
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} digests in {EXPECTED.name}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
