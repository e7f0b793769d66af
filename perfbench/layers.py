"""Layer tracing from outside the library.

The traced run measures each layer by wrapping callables, never by
editing library source.  Two kinds of boundary are wrapped:

- the system's own callables (the six maps of ``QsrSystem`` and the two
  functions of its ``StorageFunction``), on a copy of the system made
  with ``dataclasses.replace``;
- module attributes that the library looks up at call time, patched only
  for the duration of a traced operation (see ``BOUNDARIES``).

A boundary that a later refactor removes is reported absent, and the
metrics that need it are left out of the result instead of failing the
run.

Each wrapped call is a span.  Its self time is its duration minus the
durations of the spans it encloses, so the self times of all spans under
one root add up to that root's duration.  Totals are aggregated in
memory per root: ``integrate`` (the solve), ``audit`` (the balance audit)
and ``setup`` (building the systems).
"""

import dataclasses
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name, metric group, why this name is wrapped)
BOUNDARIES = (
    (
        "qsrdg.integrators",
        "newton_solve",
        "numerics.newton",
        "newton",
        "both steppers call it once per step; its result gives iterations"
        " and stalls, and its residual argument counts Jacobian passes",
    ),
    (
        "qsrdg.numerics",
        "lu_solve",
        "numerics.lu_solve",
        "lu_solve",
        "the float LU solve of each Newton update",
    ),
    (
        "qsrdg.integrators",
        "_evaluate",
        "dgradients.evaluate",
        "_evaluate",
        "the discrete gradient of each dg-qsr residual and output rebuild",
    ),
    (
        "qsrdg.integrators",
        "solve_generic",
        "kernels.solve_generic",
        "solve_generic",
        "the output solve of each dg-qsr residual and output rebuild",
    ),
    (
        "qsrdg.integrators",
        "supply_value",
        "model.supply_value",
        "supply_value",
        "the supply rate evaluated by the balance audit",
    ),
    (
        "qsrdg.systems",
        "solve_are",
        "riccati.solve_are",
        "solve_are",
        "the Riccati solve that building lti-ocp makes",
    ),
)

_MAPS = ("input_map", "output_map", "feedthrough", "loss_state", "loss_input")


class Tracer:
    """In-memory span totals: root -> name -> [calls, seconds, self seconds]."""

    def __init__(self):
        self.totals = {}
        self.counters = {}
        self._open = []
        self._current = None
        self._current_counts = None

    def select(self, root):
        """Attribute the following spans and counts to ``root``."""
        self._current = self.totals.setdefault(root, {})
        self._current_counts = self.counters.setdefault(root, {})

    def count(self, name, amount=1):
        counts = self._current_counts
        counts[name] = counts.get(name, 0) + amount

    def wrap(self, fn, name):
        """``fn`` recorded as a span; ``name`` may be a function of the
        positional arguments."""
        open_spans = self._open
        clock = time.perf_counter
        naming = callable(name)

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                key = name(args) if naming else name
                rec = self._current.get(key)
                if rec is None:
                    rec = self._current[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children

        return traced

    def calls(self, root, prefix):
        return sum(
            rec[0]
            for name, rec in self.totals.get(root, {}).items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def self_seconds(self, root, prefix):
        return sum(
            rec[2]
            for name, rec in self.totals.get(root, {}).items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def counts_snapshot(self):
        """Every call count and counter, for exact comparison."""
        snap = {}
        for root, names in self.totals.items():
            for name, rec in names.items():
                snap[f"{root}:{name}"] = rec[0]
        for root, names in self.counters.items():
            for name, value in names.items():
                snap[f"{root}:#{name}"] = value
        return snap

    def span_sum_defect(self, root, top):
        """Relative gap between the sum of self times under ``root`` and
        the total duration of its top-level span ``top``."""
        names = self.totals.get(root, {})
        total = names[top][1]
        selfs = sum(rec[2] for rec in names.values())
        return abs(selfs - total) / total


def _lookup(module_name, attr):
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


class Instrumentation:
    """Resolves the wrapped boundaries once and installs them per operation."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.absent = set()  # names of missing boundaries
        self.missing = set()  # metric groups that need them
        self._patches = []
        dual = _lookup("qsrdg._kernels", "Dual")
        if dual is None:
            self._lose("qsrdg._kernels.Dual", "dual")
            self._is_dual = lambda seq: False
        else:
            self._is_dual = lambda seq: any(isinstance(v, dual) for v in seq)
        for module_name, attr, span, group, _ in BOUNDARIES:
            original = _lookup(module_name, attr)
            if not callable(original):
                self._lose(f"{module_name}.{attr}", group)
                continue
            module = importlib.import_module(module_name)
            if span == "numerics.newton":
                wrapper = tracer.wrap(self._newton(original), span)
            elif span == "dgradients.evaluate":
                wrapper = tracer.wrap(original, self._by_kind)
            else:
                wrapper = tracer.wrap(original, span)
            self._patches.append((module, attr, original, wrapper))
        self._systems = {}

    def _lose(self, boundary, group):
        self.absent.add(boundary)
        self.missing.add(group)

    @staticmethod
    def _by_kind(args):
        variant = getattr(args[0], "variant", None) if args else None
        return "dgradients.evaluate" if variant is None else f"dgradients.evaluate.{variant}"

    def _split(self, prefix):
        is_dual = self._is_dual

        def name(args):
            return f"{prefix}.dual" if args and is_dual(args[0]) else f"{prefix}.float"

        return name

    def _newton(self, newton_solve):
        """Counts Jacobian passes (residual calls with dual arguments),
        Newton updates and stalls around the library's Newton loop."""
        import qsrdg.numerics

        tracer, is_dual = self.tracer, self._is_dual
        default_tol = qsrdg.numerics.NewtonSettings().residual_tolerance

        def newton(f, *args, **kwargs):
            def residual(x):
                if is_dual(x):
                    tracer.count("newton.dual_passes")
                return f(x)

            result = newton_solve(residual, *args, **kwargs)
            settings = args[1] if len(args) > 1 else kwargs.get("settings")
            tol = getattr(settings, "residual_tolerance", default_tol)
            try:
                iterations, res = int(result[1]), float(result[2])
            except (TypeError, IndexError, ValueError):
                tracer.count("newton.unreadable")
            else:
                tracer.count("newton.iterations", iterations)
                if not res <= tol:
                    tracer.count("newton.stalls")
            return result

        return newton

    def system(self, system):
        """A copy of ``system`` whose maps and storage are traced."""
        key = id(system)
        if key not in self._systems:
            wrap = self.tracer.wrap
            try:
                fields = {"drift": wrap(system.drift, self._split("systems.drift"))}
                for name in _MAPS:
                    fields[name] = wrap(getattr(system, name), self._split("systems.maps"))
                storage = system.storage
                fields["storage"] = dataclasses.replace(
                    storage,
                    value=wrap(storage.value, self._split("systems.storage")),
                    gradient=wrap(storage.gradient, self._split("systems.storage")),
                )
                traced = dataclasses.replace(system, **fields)
            except (AttributeError, TypeError):
                self._lose("qsrdg.model.QsrSystem maps", "maps")
                traced = system
            self._systems[key] = (system, traced)
        return self._systems[key][1]

    @contextmanager
    def installed(self):
        """Patch every present boundary; restore the originals on exit."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)


# metric name -> (metric groups of the boundaries it needs, end-to-end
# metric it should move).  Names, units and directions are those of
# BENCHMARK.json's per_layer list.
PER_LAYER = {
    "systems.passes.dual_per_step": (
        ("maps", "dual"),
        "step_us on all three workloads, most on reference",
    ),
    "systems.passes.float_per_step": (
        ("maps", "dual"),
        "step_us on all three workloads, most on reference",
    ),
    "systems.maps.dual_us": (
        ("maps", "dual"),
        "step_us on all three workloads, most on reference",
    ),
    "systems.maps.float_us": (
        ("maps", "dual"),
        "step_us on all three workloads, most on reference",
    ),
    "systems.storage.dual_calls_per_step": (
        ("maps", "dual"),
        "step_us on trajectory and ensemble",
    ),
    "systems.storage.float_calls_per_step": (
        ("maps", "dual"),
        "step_us on trajectory and ensemble",
    ),
    "systems.storage.us": (
        ("maps",),
        "step_us on trajectory and ensemble",
    ),
    "numerics.newton.calls_per_step": (
        ("newton",),
        "step_us on reference first, then trajectory and ensemble",
    ),
    "numerics.newton.iterations_per_step": (
        ("newton",),
        "step_us on reference first, then trajectory and ensemble",
    ),
    "numerics.newton.useful_pass_ratio": (
        ("newton", "dual"),
        "step_us on reference first, then trajectory and ensemble",
    ),
    "numerics.newton.self_us": (
        ("newton",),
        "step_us on reference first, then trajectory and ensemble",
    ),
    "numerics.newton.stalls": (
        ("newton",),
        "failed on every workload",
    ),
    "numerics.lu_solve.calls_per_step": (
        ("lu_solve",),
        "step_us on reference first, then trajectory and ensemble",
    ),
    "numerics.lu_solve.us": (
        ("lu_solve",),
        "step_us on reference first, then trajectory and ensemble",
    ),
    "kernels.solve_generic.calls_per_step": (
        ("solve_generic",),
        "step_us on trajectory and ensemble; stays 0 on reference",
    ),
    "kernels.solve_generic.us": (
        ("solve_generic",),
        "step_us on trajectory and ensemble; stays 0 on reference",
    ),
    "dgradients.evaluate.calls_per_step": (
        ("_evaluate",),
        "step_us.<kind> on trajectory; stays 0 on reference",
    ),
    "dgradients.evaluate.self_us.gonzalez": (
        ("_evaluate",),
        "step_us.gonzalez on trajectory",
    ),
    "dgradients.evaluate.self_us.itoh-abe": (
        ("_evaluate",),
        "step_us.itoh-abe on trajectory",
    ),
    "dgradients.evaluate.self_us.mean-value": (
        ("_evaluate",),
        "step_us.mean-value on trajectory",
    ),
    "integrators.integrate.self_us": (
        (),
        "member_ms.* on ensemble most, then step_us everywhere",
    ),
    "model.supply_value.us": (
        ("supply_value",),
        "audit_us on every workload",
    ),
    "riccati.solve_are.ms": (
        ("solve_are",),
        "setup_s on every workload",
    ),
    "trace.overhead_pct": (
        (),
        "none: the cost of tracing itself",
    ),
    "step_us.gonzalez": (
        (),
        "itself: step_us restricted to Gonzalez operations",
    ),
    "step_us.itoh-abe": (
        (),
        "itself: step_us restricted to Itoh-Abe operations",
    ),
    "step_us.mean-value": (
        (),
        "itself: step_us restricted to mean-value operations",
    ),
}
