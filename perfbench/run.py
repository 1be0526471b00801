"""relaxdamp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload jinxin-moc --seed 1 --seconds 30 --trace 0

Writes the seeded config under ``.perfbench_out/<workload>/seed-<n>/``, times
set-up in fresh processes, then runs one closed-loop client (``worker.py``)
for about ``--seconds`` seconds.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics and ``trace.overhead_ratio``.  Metric names and units come from
``BENCHMARK.json``.  Exits non-zero, printing no result, when the program
is missing or the client fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args: list[str], timeout: float, capture: bool) -> str:
    """Run worker.py to completion; its stdout is returned when captured."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0), text=True,
        stdout=subprocess.PIPE if capture else sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return proc.stdout or ""


def environment() -> dict:
    """Where the numbers came from, recorded next to every result."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "blas_threads": {name: child_env()[name] for name in THREAD_VARS},
    }


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(setup: list[dict], worker: dict) -> dict[str, float]:
    """Medians over untraced chains of their host-speed-scaled times."""
    timed = [c for c in worker["chains"] if not c["traced"] and "all_s" in c]
    if not timed:
        raise BenchError("no chain completed")
    chains = worker["chains"]
    return {
        "setup_s": statistics.median(s["setup_s"] * s["speed_factor"] for s in setup),
        "all_s": statistics.median(c["all_s"] for c in timed),
        "all_cpu_s": statistics.median(c["all_cpu_s"] for c in timed),
        "evolve_s": statistics.median(c["stage_s"]["stage_evolve"] for c in timed),
        "verify_s": statistics.median(c["stage_s"]["stage_verify"] for c in timed),
        "peak_rss_mb": worker["peak_rss_mb"],
        "pass_ratio": sum(not c["problems"] for c in chains) / len(chains),
    }


def scaled_layers(chain: dict) -> dict[str, float]:
    """A traced chain's span metrics with times scaled by its speed factor."""
    factor = chain["speed_factor"]
    out = {}
    for name, value in chain["layers"].items():
        if name.endswith((".s", ".self_s")):
            value *= factor
        elif name == "dynamics.node_steps_per_s":
            value /= factor
        out[name] = value
    return out


def per_layer(worker: dict) -> dict[str, float]:
    chains = worker["chains"]
    traced = [scaled_layers(c) for c in chains if c["traced"] and "layers" in c]
    plain = [c for c in chains if not c["traced"] and "all_s" in c]
    if not traced or not plain:
        raise BenchError("the traced run needs one traced and one untraced chain")
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(c["all_s"] for c in chains if c["traced"] and "layers" in c)
        / statistics.median(c["all_s"] for c in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relaxdamp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "relaxdamp" / "cli.py").is_file():
        print(f"benchmark: no relaxdamp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_out" / args.workload / f"seed-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    config = make_config(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        # The first process also compiles bytecode; it is not a sample.
        setup = []
        for sample in range(SETUP_SAMPLES + 1):
            line = run_worker(["--config", str(config_path), "--setup-only"],
                              remaining(), capture=True).strip().splitlines()[-1]
            if sample:
                setup.append(json.loads(line))
        result_path = work / "worker.json"
        run_worker(["--config", str(config_path), "--workload", args.workload,
                    "--out", str(work / "out"), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--result", str(result_path)],
                   remaining(), capture=False)
        worker = json.loads(result_path.read_text())
        values = per_layer(worker) if args.trace else end_to_end(setup, worker)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        print("benchmark: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(names))}", file=sys.stderr)
        return 1

    chains = worker["chains"]
    failed = sum(bool(c["problems"]) for c in chains)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": config["seed"],
        "perturbation": config["dynamics"]["perturbation"],
        "chains": len(chains),
        "failed": failed,
        "fail_ratio": failed / len(chains),
        "sha256": sorted({c["sha256"] for c in chains if c["sha256"]}),
        "science": worker["science"],
        "env": {**environment(), **worker["env"]},
        "setup_samples": setup,
        "chains_raw": [{**c.get("raw", {}), "speed_factor": c.get("speed_factor")}
                       for c in chains],
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": values}, indent=1) + "\n")

    for chain in chains:
        for problem in chain["problems"]:
            print(f"FAILED chain: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    for m in declared:
        print(f"{m['name']:>56} {values[m['name']]:>14.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(chains),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
