"""Tests of the benchmark itself, on seconds-long versions of the workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calib  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import wfact.cli  # noqa: E402
from wfact import factorizations, laurent, oracle  # noqa: E402
from wfact.groups import GroupParams, cycle_data, identity  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def printed_metrics(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_printed_with_its_unit(workload):
    result, lines = tiny(workload)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = printed_metrics(lines)
    for name, unit in units.items():
        assert printed[name][1] == unit
        assert result["metrics"][name]["value"] > 0
    assert printed["fail_ratio"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_and_accounts_for_wall_time(workload):
    result, lines = tiny(workload, trace=1)
    assert result["correct"]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = printed_metrics(lines)
    assert all(printed[name][1] == unit for name, unit in units.items())
    accounting = next(line for line in lines if line.startswith("accounting "))
    words = accounting.split()
    layers, unattributed, wall = float(words[2]), float(words[6]), float(words[11])
    assert layers + unattributed == pytest.approx(wall, abs=2e-6)
    assert 0 <= unattributed <= 0.25 * wall
    assert not any(line.startswith("absent ") for line in lines)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_corrupted_oracle_verify_op_counts_as_failed():
    ops = workloads.build("oracle-verify", 1, "tiny", corrupt=True)[:1]
    record, outputs = worker.run_ops(ops)
    record = worker.check_ops(ops, outputs, record)
    assert record["attempted"] == 1
    assert record["failed_keys"] == [ops[0].key]
    assert "exit code 1" in record["problems"][0]


def test_calibrated_pass_scales_each_op_by_the_samples_around_it():
    ops = workloads.build("roots", 1, "tiny")
    sampler = calib.Sampler()
    record, _ = worker.run_ops(ops, sampler)
    assert len(sampler.samples) >= calib.NEAREST
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert record["wall_s"] == pytest.approx(sum(record["latency"].values()))
    assert record["raw_wall_s"] > 0 and record["wall_s"] > 0
    # Nine samples, one slow: the op is scaled by their median.
    sampler.samples = [(float(t), 2 * calib.REFERENCE_S) for t in range(8)] + [(3.5, 1.0)]
    assert sampler.scale(2.0, 5.0) == pytest.approx(0.5)
    assert sampler.scale(100.0, 101.0) == pytest.approx(0.5)


@pytest.mark.parametrize("workload", ["series-sweep", "oracle-window"])
def test_two_seeds_give_the_same_digests(workload):
    digests = []
    elements = []
    for seed in (1, 2):
        ops = workloads.build(workload, seed, "tiny")
        elements.append([op.call.__defaults__ for op in ops])
        record, outputs = worker.run_ops(ops)
        record = worker.check_ops(ops, outputs, record)
        assert record["failed_keys"] == []
        digests.append(record["digests"])
    assert elements[0] != elements[1]  # other conjugates, other order
    assert digests[0] == digests[1]


def test_digest_line_does_not_depend_on_the_seed():
    lines = [tiny("roots", seed)[1] for seed in (1, 2)]
    digest = [[line for line in ls if line.startswith("digest ")] for ls in lines]
    assert digest[0] == digest[1] and len(digest[0]) == 1


@pytest.mark.parametrize("m,p,n", workloads.WINDOW_GROUPS["full"] + [(4, 2, 4)])
def test_class_keys_match_the_oracle_representatives(m, p, n):
    params = GroupParams(m, p, n)
    reps = {cycle_data(g, params).class_key for g in oracle.class_representatives(params)}
    assert set(workloads.class_keys(m, p, n)) == reps


def test_random_conjugate_stays_in_its_class():
    rng = workloads.random.Random(5)
    params = GroupParams(4, 2, 5)
    for pairs in workloads.class_keys(4, 2, 5):
        perm, colors = workloads.random_conjugate(pairs, 4, 5, rng)
        g = workloads.Element(tuple(v + 1 for v in perm), tuple(colors))
        assert cycle_data(g, params).class_key == pairs


def test_tracer_patches_every_binding_and_restores_them():
    originals = (wfact.cli.extract_phi, factorizations.extract_phi,
                 laurent.LaurentPoly.__mul__, laurent.LaurentPoly.__rmul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wfact.cli.extract_phi is factorizations.extract_phi
        assert wfact.cli.extract_phi is not originals[0]
        tracer.mark_ops_start()
        params = GroupParams(3, 1, 3)
        factorizations.phi_data(params, identity(params))
    finally:
        tracer.uninstall()
    assert (wfact.cli.extract_phi, factorizations.extract_phi,
            laurent.LaurentPoly.__mul__, laurent.LaurentPoly.__rmul__) == originals
    seconds, calls = tracer.self_times(tracer.ops_start)
    assert calls["laurent.strip"] >= 1 and calls["factorizations"] >= 1
    top = [s for s in tracer.spans if s[3] == -1]
    assert sum(seconds.values()) == pytest.approx(sum(e - s for _, s, e, _ in top))
    assert tracer.absent == []


def test_recording_reproduces_the_expected_digests(tmp_path):
    shutil.copytree(ROOT / "src" / "wfact", tmp_path / "src" / "wfact",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench" / "expected.json").unlink()
    proc = bench("--workload", "oracle-window", "--seed", "3", "--seconds", "1",
                 "--record-expected", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads((tmp_path / "perfbench" / "expected.json").read_text())
    committed = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert recorded == {"oracle-window": committed["oracle-window"]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "roots", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
