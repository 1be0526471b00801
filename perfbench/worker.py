"""One benchmark client: runs relaxdamp's ``all`` chain in a closed loop.

    python3 perfbench/worker.py --config CFG --setup-only
    python3 perfbench/worker.py --config CFG --workload W --out DIR \
        --seconds S --trace 0|1 --result FILE

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and BLAS
threads pinned to 1.  With ``--setup-only`` it times importing
``relaxdamp.cli``, parsing the config and building the model, and prints
that time with the host's speed factor (see ``SpeedSampler``).  Otherwise
each chain parses the config and runs ``cli.STAGES["all"]`` in this
process; the per-chain timings, the gate's
verdict and, with ``--trace 1``, the per-layer span metrics go to
``--result`` as JSON.  Only the standard library is imported before the
setup clock starts.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


# Seconds the speed probe takes on a 2.1 GHz Xeon vCPU; reported times are
# scaled to a host on which the probe takes exactly this long.
PROBE_REF_S = 0.003
SAMPLE_INTERVAL_S = 0.05


class SpeedSampler:
    """Samples how fast the host runs while the measured code runs.

    On a shared machine the same code runs up to half again as slow from one
    second to the next.  A real-time interval timer interrupts the chain every
    ``SAMPLE_INTERVAL_S`` to time ``probe``, a fixed mix of interpreter, numpy
    and small-eig work that touches no relaxdamp code.  ``wall`` and ``cpu``
    are clocks that stop while the probe runs, and ``factor`` converts seconds
    measured during sampling to seconds on the reference host.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(-40.0, 40.0, 4001)
        self._A = np.zeros((401, 2, 2))
        self._A[:, 0, 1] = 1.0
        self._A[:, 1, 0] = 4.0 + 0.2 * np.tanh(self._x[::10] / 8.0)
        self.samples: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0

    def probe(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for k in range(30):
            y = np.exp(-0.5 * (self._x - 0.001 * k) ** 2)
            acc += float(np.sum(y[1:] * y[:-1]))
        np.linalg.eig(self._A)
        h = 0
        for k in range(5000):
            h = (h * 31 + k) % 1000003
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        start, cpu_start = time.perf_counter(), time.process_time()
        self.samples.append(self.probe())
        self.spent += time.perf_counter() - start
        self.spent_cpu += time.process_time() - cpu_start

    def wall(self) -> float:
        return time.perf_counter() - self.spent

    def cpu(self) -> float:
        return time.process_time() - self.spent_cpu

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Speed factor from the samples taken in ``[first, last)``.

        A window too short to hold a sample uses the latest one before it.
        """
        window = (self.samples[first:last] or self.samples[max(first - 1, 0):first]
                  or [self.probe()])
        return PROBE_REF_S * len(window) / sum(window)

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_chain(cli, config, config_path: Path, out: Path, sampler) -> dict:
    """Parse the config and run the ``all`` chain once, timing each stage.

    Each segment's wall and CPU seconds are scaled by the host speed sampled
    while it ran; ``raw`` keeps the unscaled seconds.
    """
    segments = []  # (name, wall s, cpu s, speed factor)

    def timed(name, run):
        first, wall, cpu = len(sampler.samples), sampler.wall(), sampler.cpu()
        result = run()
        segments.append((name, sampler.wall() - wall, sampler.cpu() - cpu,
                         sampler.factor(first, len(sampler.samples))))
        return result

    with sampler:
        cfg = timed("parse_config", lambda: config.parse_config(config_path))
        codes = [timed(stage.__name__, lambda: stage(cfg, out))
                 for stage in cli.STAGES["all"]]
        speed_factor = sampler.factor()
    return {
        "all_s": sum(wall * f for _, wall, _, f in segments),
        "all_cpu_s": sum(cpu * f for _, _, cpu, f in segments),
        "stage_s": {name: wall * f for name, wall, _, f in segments},
        "raw": {"all_s": sum(wall for _, wall, _, _ in segments),
                "all_cpu_s": sum(cpu for _, _, cpu, _ in segments)},
        "codes": codes,
        "speed_factor": speed_factor,
        "speed_samples": len(sampler.samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    from relaxdamp import cli, config

    config.parse_config(args.config).build_model()
    setup_s = time.perf_counter() - SETUP_START
    sampler = SpeedSampler()
    if args.setup_only:
        sampler.samples = [sampler.probe() for _ in range(50)]
        print(json.dumps({"setup_s": setup_s, "speed_factor": sampler.factor()}))
        return 0

    import numpy
    import scipy

    import checks
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    perturbation = json.loads(args.config.read_text())["dynamics"]["perturbation"]
    expected = checks.expected_values(checks.load_reference(args.workload),
                                      perturbation)
    tracer = Tracer(clock=sampler.wall) if args.trace else None
    args.out.mkdir(parents=True, exist_ok=True)

    # A round is one chain, or one untraced and one traced chain; the loop
    # stops before a round that would overrun by more than half a round.
    per_round = 2 if tracer else 1
    chains = []
    first_digest = None
    start = time.perf_counter()
    while True:
        # Untraced and traced chains alternate, so the overhead ratio
        # compares chains run under the same conditions.
        traced = tracer is not None and len(chains) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            chain = run_chain(cli, config, args.config, args.out, sampler)
            found = checks.problems(args.out, chain["codes"], expected)
            digest = checks.science_digest(args.out)
            first_digest = first_digest or digest
            if digest != first_digest:
                found.append(f"science artifacts sha256 {digest} differs "
                             f"from the first chain's {first_digest}")
        except Exception:  # noqa: BLE001 - a crashed chain counts as failed
            chain = {"codes": []}
            digest = None
            found = [traceback.format_exc()]
        finally:
            if traced:
                tracer.uninstall()
        chain.update(traced=traced, problems=found, sha256=digest)
        if traced and "all_s" in chain:
            tracer.check_coverage(workload.must_fire, workload.per_step)
            chain["layers"] = tracer.layer_metrics()
        chains.append(chain)

        if len(chains) % per_round:
            continue
        elapsed = time.perf_counter() - start
        rounds = len(chains) // per_round
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "chains": chains,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "science": checks.science_values(args.out) if chains[-1]["sha256"] else {},
        "env": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(numpy),
        },
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


def _blas_name(numpy) -> str:
    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
