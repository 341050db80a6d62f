"""sparsefn benchmark: drives ``sparsefn.cli.main`` in-process on seeded workloads.

    python3 bench/run.py --workload mc-small-d --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run repeats the workload's round -- its sequence of CLI calls on inputs
drawn from (seed, round) -- for about ``--seconds`` seconds, checks every
output, and prints the metrics as text and, on the last line of stdout, as
one JSON object.  Times are reported at a reference CPU speed, sampled
between calls by ``HostSpeed``; the manifest keeps the unscaled times too.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` spends half the time untraced and half
replaying the same rounds traced, and reports the per-layer metrics.  A run
manifest (and, traced, the spans) goes to ``.bench_out/`` in the checkout.
``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7       # set-ups per run: this process plus fresh interpreters
PROCESS_TIMEOUT = 170   # seconds, per child process
# HostSpeed kernels: (array size, NumPy calls per sample, seconds a sample takes
# at the reference speed -- about its median on the 2-vCPU x86-64 VM the
# benchmark was tuned on)
REFERENCE = {"calls": (100, 2000, 0.010), "arrays": (10_000, 60, 0.023)}

sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402  (sibling modules; import neither numpy nor sparsefn)
import workloads  # noqa: E402


def _round_inputs(workload, seed: int):
    """Inputs of round r, drawn in order from one seeded stream."""
    rng = random.Random(f"{workload.name}:{seed}")
    drawn: list = []

    def get(r: int) -> dict:
        while len(drawn) <= r:
            drawn.append(workload.round_inputs(rng))
        return drawn[r]

    return get


def setup_once(workload, seed: int, tmp: str) -> float:
    """Seconds for ``import sparsefn`` plus config and loading set-up; a fresh
    interpreter's import only when nothing has imported sparsefn yet."""
    t0 = perf_counter()
    import sparsefn.cli  # noqa: F401

    workload.setup(_round_inputs(workload, seed)(0), tmp)
    return perf_counter() - t0


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class HostSpeed:
    """Samples the CPU speed this process gets, with fixed NumPy work that
    runs no sparsefn code.

    On a shared host that speed drifts by tens of percent within seconds, and
    a run's median wall time drifts with it.  The kernel slows with the host,
    so scaling a call's wall time by ``seconds / kernel time``, with the
    kernel timed just before and just after the call, gives the seconds the
    call takes where the kernel takes ``seconds``: the program's cost with
    most of the drift taken out.  Each workload names the kernel whose work
    resembles its own (``REFERENCE``): ``calls`` makes many calls on 100
    elements, where interpreter and call overhead dominate, as a Monte Carlo
    replicate at small d does; ``arrays`` reduces 10000-element arrays, as
    the threshold solves do.
    """

    def __init__(self, kernel: str) -> None:
        import numpy as np

        self._np = np
        self._kernel = kernel
        size, self._repeats, self._seconds = REFERENCE[kernel]
        self._x = np.random.default_rng(0).standard_normal(size)
        self.samples: list = []
        self.sample()  # warm-up, not kept
        self.samples.clear()

    def sample(self) -> float:
        np, x = self._np, self._x
        t0 = perf_counter()
        if self._kernel == "calls":
            acc = sum(float(np.exp(-x * x).sum()) for _ in range(self._repeats))
        else:
            acc = sum(float(np.logaddexp(x, 0.5).max()) for _ in range(self._repeats))
        took = perf_counter() - t0
        if not math.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite sum")
        self.samples.append(took)
        return took

    def scale(self, wall: float, before: float, after: float) -> float:
        return wall * 2.0 * self._seconds / (before + after)


class Runner:
    """Runs rounds of one workload and accounts operations and failures."""

    def __init__(self, workload, seed: int, tmp: str, speed: HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.inputs = _round_inputs(workload, seed)
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def round(self, r: int) -> tuple[float, float, list]:
        """Run round r; returns (wall seconds, the same at the reference
        speed, output bytes per call)."""
        import sparsefn.cli as cli

        calls = self.workload.calls(self.inputs(r), self.tmp)
        codes = []
        wall = scaled = 0.0
        before = self.speed.sample()
        for call in calls:
            t0 = perf_counter()
            try:
                codes.append(cli.main(call.argv))
            except Exception:  # an escaping exception is a failed operation
                codes.append(traceback.format_exc(limit=3))
            took = perf_counter() - t0
            after = self.speed.sample()
            wall += took
            scaled += self.speed.scale(took, before, after)
            before = after
        outputs = []
        for call, code in zip(calls, codes):
            self.attempted += 1
            data = None
            if code == 0:
                try:
                    with open(call.out, "rb") as fh:
                        data = fh.read()
                    os.remove(call.out)
                    self.workload.check(call, self.inputs(r), data.decode("utf-8"))
                except Exception as exc:  # unreadable or malformed output fails too
                    self.fail(f"round {r} {call.kind}: output check: {exc!r}")
                    data = None
            else:
                self.fail(f"round {r} {call.kind}: exit {code}")
            outputs.append(data)
        return wall, scaled, outputs

    def phase(self, budget: float, max_rounds: int | None = None) -> tuple[list, list, list]:
        """Rounds 0, 1, ... while the next one is expected to end within half
        a round of ``budget`` seconds (at least one round); returns per-round
        walls, walls at the reference speed and outputs."""
        walls, scaled, outputs = [], [], []
        start = perf_counter()
        last = 0.0
        while not walls or (perf_counter() - start + last / 2.0 <= budget
                            and (max_rounds is None or len(walls) < max_rounds)):
            t0 = perf_counter()
            wall, at_ref, out = self.round(len(walls))
            walls.append(wall)
            scaled.append(at_ref)
            outputs.append(out)
            last = perf_counter() - t0
        return walls, scaled, outputs


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    return _read_first("/proc/loadavg").split(" ")[0]


def manifest(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "git_sha": _git_sha(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(args) -> dict:
    workload = workloads.build(args.tiny)[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    load_start = _loadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as tmp:
        setups = [setup_once(workload, args.seed, tmp)]
        speed = HostSpeed(workload.speed_kernel)  # imports numpy: after the first set-up
        speeds = [speed.sample()]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_probe_setup(args))
            speeds.append(speed.sample())
        setups_at_ref = [speed.scale(wall, speeds[max(i - 1, 0)], speeds[i])
                         for i, wall in enumerate(setups)]
        info = manifest(args)
        info["loadavg_1min_start"] = load_start
        runner = Runner(workload, args.seed, tmp, speed)
        if not args.trace:
            walls, scaled, _ = runner.phase(args.seconds)
            wall = statistics.median(scaled)
            metrics = {
                "wall_s": _metric(wall, "s"),
                "items_per_s": _metric(workload.items_per_round / wall, "1/s"),
                "setup_s": _metric(statistics.median(setups_at_ref), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            info.update(round_walls_s=walls, round_walls_at_ref_s=scaled,
                        wall_s_unscaled=statistics.median(walls))
        else:
            walls, scaled, plain = runner.phase(args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls, traced_scaled, traced = runner.phase(args.seconds / 2.0,
                                                                   len(walls))
            finally:
                tracer.uninstall()
            n = len(traced_walls)
            for r in range(n):
                for call_index, (a, b) in enumerate(zip(plain[r], traced[r])):
                    if a is not None and b is not None and a != b:
                        runner.fail(f"round {r} call {call_index}: traced output differs")
            metrics = tracing.layer_metrics(tracer, n)
            metrics["trace.overhead_frac"] = _metric(
                statistics.median(traced_scaled) / statistics.median(scaled[:n]) - 1.0,
                "ratio")
            spans_path = OUT_DIR / f"spans-{tag}.csv.gz"
            tracer.write(str(spans_path))
            info.update(round_walls_s=walls, traced_round_walls_s=traced_walls,
                        round_walls_at_ref_s=scaled, traced_round_walls_at_ref_s=traced_scaled,
                        untraced_targets=tracer.missing, spans=spans_path.name)
    info.update(setup_samples_s=setups, setup_samples_at_ref_s=setups_at_ref,
                reference_samples_s=speed.samples, loadavg_1min_end=_loadavg(),
                attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                metrics=metrics)
    with open(OUT_DIR / f"manifest-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in a fresh process; prints one table row per metric."""
    results = {}
    for name in workloads.build():
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        _print_text(name, res)
    return results


def _print_text(name: str, res: dict) -> None:
    print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} fail_frac={res['failed'] / res['attempted']:.6g}")
    for key, m in res["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.build(), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparsefn" / "__init__.py").is_file():
        print(f"error: no sparsefn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = workloads.build(args.tiny)[args.workload]
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT_DIR) as tmp:
            print(repr(setup_once(workload, args.seed, tmp)))
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args), sort_keys=True))
        return 0
    res = run(args)
    _print_text(args.workload, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
