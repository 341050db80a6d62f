"""Smoke runs of every benchmark workload at tiny sizes, so the benchmark
cannot rot, plus checks that its output checks and tracer do their job.

    python -m pytest bench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.build())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_all_prints_every_workload():
    proc = _bench("--workload", "all", "--seed", "4", "--seconds", "0.2", "--tiny")
    assert proc.returncode == 0, proc.stderr
    for w in SPEC["workloads"]:
        assert f"{w['name']}: correct=True" in proc.stdout
    for m in SPEC["end_to_end"]:
        assert proc.stdout.count(f"  {m['name']} = ") == len(SPEC["workloads"])
    assert proc.stdout.count("fail_frac=0\n") == len(SPEC["workloads"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "mc-small-d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _one_call_output(workload, tmp_path):
    from sparsefn.cli import main

    inputs = workload.round_inputs(random.Random(0))
    call = workload.calls(inputs, str(tmp_path))[0]
    assert main(call.argv) == 0
    return call, inputs, Path(call.out).read_text()


def test_simulate_check_rejects_bad_rows(tmp_path):
    workload = workloads.build(tiny=True)["mc-small-d"]
    call, inputs, text = _one_call_output(workload, tmp_path)
    workload.check(call, inputs, text)
    lines = text.splitlines()
    cols = lines[1].split(",")
    for col, bad in (("n_rep", "2"), ("mse", "nan"), ("ratio", "inf")):
        row = lines[2].split(",")
        row[cols.index(col)] = bad
        with pytest.raises(ValueError):
            workload.check(call, inputs, "\n".join([*lines[:2], ",".join(row), *lines[3:]]))
    with pytest.raises(ValueError):
        workload.check(call, inputs, "\n".join(lines[:-1]))


def test_rate_check_rejects_perturbed_roots(tmp_path):
    workload = workloads.build(tiny=True)["rate-large-d"]
    call, inputs, text = _one_call_output(workload, tmp_path)
    workload.check(call, inputs, text)
    lines = text.splitlines()
    cols = lines[1].split(",")
    row = lines[2].split(",")
    row[cols.index("beta")] = repr(float(row[cols.index("beta")]) * (1 + 1e-6))
    with pytest.raises(ValueError):
        workload.check(call, inputs, "\n".join([*lines[:2], ",".join(row), *lines[3:]]))


def test_tracer_self_time_across_threads():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        with ThreadPoolExecutor(max_workers=4) as pool:
            for f in [pool.submit(traced_leaf) for _ in range(8)]:
                f.result()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_outer = tracer.wrap("outer", outer)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=traced_outer)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        traced_outer()
    finally:
        sys.setswitchinterval(old)
    assert [s[0] for s in tracer.spans].count("leaf") == 16
    selfs = tracer.self_times()
    for span in tracer.spans:
        if span[0] == "outer":
            children = [s for s in tracer.spans if s[4] is span]
            # only the call made from the main thread adopts worker spans
            if span[1] == threading.main_thread().ident:
                assert len(children) == 8
                assert selfs[id(span)] < (span[3] - span[2]) - 0.02
            else:
                assert children == []
