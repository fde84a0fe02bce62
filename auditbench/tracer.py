"""Spans recorded from outside chronolab, around calls into its public functions.

`Tracer.install` replaces each traced function by a timing wrapper in every
chronolab namespace that holds it: its own module, the package, and every
consumer that imported it by name (`constraint` and `povm` both import
`evolve_extended` directly).  `uninstall` puts the originals back, so the
same process can alternate traced and untraced passes.

A span is (name, start, end, parent, pass id, work).  Spans stay in memory
and are written once, at exit.  A layer's self time is its span's duration
minus the durations of its direct child spans; calls nest on one thread, so
children never overlap.

Nothing in chronolab queues or waits: every layer is busy from call to
return, so no layer has a waiting-time metric.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

# (layer, module, function): each is wrapped wherever it is bound by name.
FUNCTIONS = (
    ("classical.poisson_bracket", "classical", "poisson_bracket"),
    ("classical.integrate", "classical", "integrate_original"),
    ("classical.integrate", "classical", "integrate_extended"),
    ("classical.check_equivalence", "classical", "check_equivalence"),
    ("quantum.build_clock", "quantum", "build_clock"),
    ("quantum.build_extended", "quantum", "build_extended"),
    ("quantum.verify_kronecker_spectrum", "quantum", "verify_kronecker_spectrum"),
    ("quantum.evolve_extended", "quantum", "evolve_extended"),
    ("constraint.solve_constraint_kernel", "constraint", "solve_constraint_kernel"),
    ("constraint.solve_constraint_spectral", "constraint", "solve_constraint_spectral"),
    ("constraint.principal_angles", "constraint", "principal_angles"),
    ("constraint.snap_energies", "constraint", "snap_energies"),
    ("constraint.stationarity_check", "constraint", "stationarity_check"),
    ("povm.pm_violation_report", "povm", "pm_violation_report"),
    ("povm.conditional_state", "povm", "conditional_state"),
    ("povm.build_time_povm", "povm", "build_time_povm"),
    ("povm.time_distribution", "povm", "time_distribution"),
    ("scenarios.run_scenario", "scenarios", "run_scenario"),
    ("config.parse_config", "config", "parse_config"),
    ("serialize", "serialize", "subspace_to_container"),
    ("serialize", "serialize", "write_distribution_csv"),
    ("serialize", "serialize", "write_defect_sweep_csv"),
)

# (layer, module, class, method)
METHODS = (
    ("serialize", "classical", "Trajectory", "to_csv"),
    ("serialize", "scenarios", "AuditReport", "to_json"),
)

# Work counted per span, where a layer has a natural unit.
WORK = {
    "classical.integrate": lambda args, kwargs, result: result.params.size - 1,
    "povm.pm_violation_report": lambda args, kwargs, result: args[0].M * (args[0].M - 1) // 2,
    # dense H_ex bytes, computed from the shape (complex128), not measured
    "quantum.build_extended": lambda args, kwargs, result: 16 * result.dim ** 2,
}

SETUP_PASS = -1


def _evolve_layer(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "kron")
    return f"quantum.evolve_extended.{method}"


def _operator_key(ext) -> str:
    """Identity of H_ex by content: build_extended is a function of these."""
    clock = ext.clock
    digest = hashlib.sha1(ext.system.matrix.tobytes())
    digest.update(repr((clock.M, clock.deltaT, clock.T0, clock.sigma)).encode())
    return digest.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass_id, work]
        self.operators: dict[int, set] = {}  # pass id -> distinct H_ex keys decomposed
        self.pass_id = SETUP_PASS
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id, 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        name_of = _evolve_layer if layer == "quantum.evolve_extended" else None
        work = WORK.get(layer)

        def traced(*args, **kwargs):
            span = self._open(name_of(args, kwargs) if name_of else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eigensystem(self, fn):
        def eigensystem(ext):
            # the decomposition is cached per ExtendedSpace: count misses only
            if getattr(ext, "_eig", None) is not None:
                return fn(ext)
            span = self._open("quantum.eigensystem")
            try:
                return fn(ext)
            finally:
                self._close(span)
                self.operators.setdefault(self.pass_id, set()).add(_operator_key(ext))

        eigensystem.__wrapped__ = fn
        return eigensystem

    def install(self):
        """Wrap every traced function and method in the loaded chronolab modules."""
        if self._saved:
            return
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "chronolab" or name.startswith("chronolab.")}
        for layer, module, attr in FUNCTIONS:
            original = getattr(modules[f"chronolab.{module}"], attr)
            traced = self._wrap(layer, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, traced)
        for layer, module, cls_name, attr in METHODS:
            cls = getattr(modules[f"chronolab.{module}"], cls_name)
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(layer, original))
        ext_cls = modules["chronolab.quantum"].ExtendedSpace
        original = vars(ext_cls)["eigensystem"]
        self._saved.append((ext_cls, "eigensystem", original))
        ext_cls.eigensystem = self._wrap_eigensystem(original)

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "work": work}) + "\n")

    def self_times(self):
        """{pass id: {layer: [self seconds, calls, work]}} over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, pass_id, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict] = {}
        for index, (name, start, end, parent, pass_id, work) in enumerate(self.spans):
            entry = out.setdefault(pass_id, {}).setdefault(name, [0.0, 0, 0])
            entry[0] += (end - start) - child_time[index]
            entry[1] += 1
            entry[2] += work
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced_passes: dict, untraced_times: list) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals.

    `traced_passes` maps pass id to that pass's wall seconds.
    """
    per_pass = tracer.self_times()
    ids = sorted(traced_passes)

    def per(layer, field):
        return [per_pass.get(i, {}).get(layer, (0.0, 0, 0))[field] for i in ids]

    def self_s(*layers):
        return _median([sum(v) for v in zip(*(per(layer, 0) for layer in layers))])

    def share(*layers):
        return _median([sum(per_pass.get(i, {}).get(layer, (0.0,))[0] for layer in layers)
                        / traced_passes[i] for i in ids])

    by_module: dict[str, list] = {}
    for layer in {name for spans in per_pass.values() for name in spans}:
        by_module.setdefault(layer.split(".")[0], []).append(layer)

    m = {}
    m["classical.poisson_bracket.calls"] = _median(per("classical.poisson_bracket", 1))
    m["classical.poisson_bracket.self_s"] = self_s("classical.poisson_bracket")
    steps = _median(per("classical.integrate", 2))
    m["classical.integrate.steps"] = steps
    m["classical.integrate.self_s"] = self_s("classical.integrate")
    m["classical.integrate.us_per_step"] = (
        1e6 * m["classical.integrate.self_s"] / steps if steps else 0.0)
    m["classical.check_equivalence.self_s"] = self_s("classical.check_equivalence")
    decompositions = _median(per("quantum.eigensystem", 1))
    m["quantum.eigensystem.decompositions"] = decompositions
    m["quantum.eigensystem.self_s"] = self_s("quantum.eigensystem")
    m["quantum.eigensystem.useful_ratio"] = _median(
        [len(tracer.operators.get(i, ())) / n
         for i, n in zip(ids, per("quantum.eigensystem", 1)) if n])
    m["quantum.build_extended.calls"] = _median(per("quantum.build_extended", 1))
    m["quantum.build_extended.self_s"] = self_s("quantum.build_extended")
    m["quantum.build_extended.bytes"] = _median(per("quantum.build_extended", 2))
    m["quantum.verify_kronecker_spectrum.self_s"] = self_s("quantum.verify_kronecker_spectrum")
    m["quantum.build_clock.self_s"] = self_s("quantum.build_clock")
    for method in ("dense", "kron"):
        layer = f"quantum.evolve_extended.{method}"
        m[f"{layer}.calls"] = _median(per(layer, 1))
        m[f"{layer}.self_s"] = self_s(layer)
    for fn in ("solve_constraint_kernel", "solve_constraint_spectral", "principal_angles",
               "snap_energies", "stationarity_check"):
        m[f"constraint.{fn}.self_s"] = self_s(f"constraint.{fn}")
    m["povm.pm_violation_report.pairs"] = _median(per("povm.pm_violation_report", 2))
    m["povm.pm_violation_report.self_s"] = self_s("povm.pm_violation_report")
    m["povm.conditional_state.calls"] = _median(per("povm.conditional_state", 1))
    m["povm.conditional_state.self_s"] = self_s("povm.conditional_state")
    m["povm.build_time_povm.self_s"] = self_s("povm.build_time_povm")
    m["povm.time_distribution.self_s"] = self_s("povm.time_distribution")
    m["scenarios.run_scenario.self_s"] = self_s("scenarios.run_scenario")
    m["serialize.self_s"] = self_s("serialize")
    for module in ("classical", "quantum", "constraint", "povm"):
        m[f"module.{module}.self_s"] = self_s(*by_module.get(module, ()))
    # parse_config runs during set-up, once per process
    m["config.parse_config.self_s"] = per_pass.get(SETUP_PASS, {}).get(
        "config.parse_config", (0.0,))[0]

    classical = by_module.get("classical", [])
    dense = ("quantum.eigensystem", "quantum.build_extended",
             "quantum.verify_kronecker_spectrum", "quantum.evolve_extended.dense")
    m["share.classical_eigensystem"] = share(*classical, "quantum.eigensystem")
    m["share.quantum_dense"] = share(*dense)
    m["share.pm_violation_report"] = share("povm.pm_violation_report")

    traced_p50 = _median(list(traced_passes.values()))
    m["trace.pass_s.p50"] = traced_p50
    m["trace.untraced_pass_s.p50"] = _median(untraced_times)
    m["trace.overhead_s"] = traced_p50 - m["trace.untraced_pass_s.p50"]
    m["trace.spans_per_pass"] = _median(
        [sum(v[1] for v in per_pass.get(i, {}).values()) for i in ids])
    return m
