"""Span tracer that wraps relaxdamp's public functions from outside the package.

``install`` replaces each function named in ``SPANS`` by a timing wrapper:
on its defining module or class, on every other ``relaxdamp`` module that
bound the same object with ``from ... import``, and inside the ``cli.STAGES``
chains.  ``uninstall`` puts every original back.  A span's self time is its
inclusive time minus the inclusive time of the spans it called.
"""

from __future__ import annotations

import functools
import os
import sys
import time

PACKAGE = "relaxdamp"

# One name per wrapped function: "<module>.<qualname>" under the package.
SPANS = (
    "config.parse_config",
    "model.validate_model",
    "model.ModelSpec.q_at",
    "model.ModelSpec.A_at",
    "profile.solve_profile",
    "profile.residual",
    "profile.ProfileRep.eval",
    "eigenframe.frames_at_states",
    "eigenframe.transformed_source",
    "eigenframe.damping_rate",
    "spectral_stability.dissipativity_certificate",
    "spectral_stability.hyperbolicity_scan",
    "spectral_stability.expansion_check",
    "dynamics.evolve",
    "dynamics.Stepper.step_moc",
    "dynamics.Stepper.step_reference",
    "dynamics.Stepper.source",
    "dynamics.Stepper._advance_boundary",
    "dynamics.Stepper._ode_node_update",
    "dynamics._cubic_interp",
    "dynamics._linear_interp",
    "dynamics.fd4_derivative",
    "dynamics.Trajectory.source_field",
    "characteristics.trace_many",
    "characteristics.accumulate_H",
    "characteristics.verify_H_bound",
    "characteristics.no_damping_radius",
    "characteristics.scan_trajectory_damping",
    "damping_verifier.norm_series",
    "damping_verifier.fit_damping",
    "damping_verifier.slaving_check",
    "damping_verifier.weight_fn",
    "damping_verifier.weighted_energy_series",
    "cli.stage_profile",
    "cli.stage_check",
    "cli.stage_evolve",
    "cli.stage_verify",
    "cli.write_csv",
    "cli.write_json",
)

STEP_SPANS = ("dynamics.Stepper.step_moc", "dynamics.Stepper.step_reference")
WRITE_SPANS = ("cli.write_csv", "cli.write_json")
SOURCE_FIELD = "dynamics.Trajectory.source_field"
TRANSFORMED_SOURCE = "eigenframe.transformed_source"


def _grid_nodes(args, result) -> int:
    return len(result.U)


def _bytes_written(args, result) -> int:
    return os.path.getsize(args[0])


# Work counted per span call, from its arguments and result.
WORK = {
    **{name: _grid_nodes for name in STEP_SPANS},
    **{name: _bytes_written for name in WRITE_SPANS},
}


class TraceError(RuntimeError):
    """A span target is missing or an expected span never fired."""


class _Record:
    __slots__ = ("calls", "total", "child", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.work = 0


class Tracer:
    """In-memory span records; read them with ``layer_metrics``.

    ``clock`` returns seconds; the benchmark passes one that stops while its
    speed probe runs, so probe time lands in no span.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.records = {name: _Record() for name in SPANS}
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []   # open spans: [name, child seconds]
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.records = {name: _Record() for name in SPANS}
        self.edges = {}

    def _wrap(self, name: str, fn):
        stack = self._stack
        work = WORK.get(name)
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec = self.records[name]
                rec.calls += 1
                rec.total += elapsed
                rec.child += frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edge = (parent[0], name)
                    self.edges[edge] = self.edges.get(edge, 0) + 1
            if work is not None:
                rec.work += work(args, result)
            return result

        return span

    def _set(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        __import__(f"{PACKAGE}.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for name in SPANS:
            module_name, _, qualname = name.partition(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.uninstall()
                raise TraceError(f"span target {PACKAGE}.{name} not found")
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = wrapper
            self._set(owner, attr, wrapper)
            if path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for chain in sys.modules[f"{PACKAGE}.cli"].STAGES.values():
            for index, stage in enumerate(chain):
                if id(stage) in wrappers:
                    self._patches.append((chain, index, stage))
                    chain[index] = wrappers[id(stage)]

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(key, int):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-span calls, inclusive and self seconds, and derived ratios."""
        out: dict[str, float] = {}
        for name, rec in self.records.items():
            out[f"{name}.calls"] = rec.calls
            out[f"{name}.s"] = rec.total
            out[f"{name}.self_s"] = rec.total - rec.child
        step_s = sum(self.records[n].total for n in STEP_SPANS)
        node_steps = sum(self.records[n].work for n in STEP_SPANS)
        out["dynamics.node_steps_per_s"] = node_steps / step_s if step_s > 0 else 0.0
        lookups = self.records[SOURCE_FIELD].calls
        misses = self.edges.get((SOURCE_FIELD, TRANSFORMED_SOURCE), 0)
        out[f"{SOURCE_FIELD}.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        out["cli.bytes_written"] = sum(self.records[n].work for n in WRITE_SPANS)
        return out

    def check_coverage(self, must_fire, per_step) -> None:
        """Raise TraceError when a span the workload relies on did not fire."""
        missing = [n for n in must_fire if self.records[n].calls == 0]
        if missing:
            raise TraceError(f"expected spans never fired: {', '.join(missing)}")
        steps = sum(self.records[n].calls for n in STEP_SPANS)
        short = [n for n in per_step if self.records[n].calls < steps]
        if short:
            raise TraceError(
                f"spans fired fewer times than the {steps} steps: "
                + ", ".join(f"{n} ({self.records[n].calls})" for n in short))
