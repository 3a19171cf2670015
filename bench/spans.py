"""Spans around the public functions of each fermigas layer, from outside.

``install(tracer)`` wraps every target in ``TARGETS``: it rebinds the
name in every ``fermigas`` module that holds the original function, so
calls through ``from .lattice import lune`` are caught as well as calls
through the defining module.  ``numpy.linalg.eigh`` is wrapped the same
way.  A target that no longer exists is recorded as absent, never an
error.

Each span keeps its name, start, end and parent span in flat lists for
the life of the worker process.  A span's self time is its duration
minus the durations of its direct children; the package runs on one
thread here, so children never overlap.

The quadrature routines and ``ordered_map`` call back into their caller's
code.  Each callback runs in an unnamed span whose self time is credited
to the nearest named ancestor that is not such a routine, so a routine's
self time is its own bookkeeping and the integrand's cost stays with the
layer that posed the integral.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict


def _lune(c, args, kwargs, result):
    c["lattice.lune.points"] += result.dim


def _orbit_reduce(c, args, kwargs, result):
    c["lattice.orbit_reduce.k_in"] += len(args[0] if args else kwargs["ks"])
    c["lattice.orbit_reduce.reps_out"] += len(result)


def _q_of_s(c, args, kwargs, result):
    s = args[1] if len(args) > 1 else kwargs["s"]
    c["quasiboson.q_of_s.nodes"] += int(getattr(s, "size", 1))


def _eigh(c, args, kwargs, result):
    shape = getattr(args[0] if args else kwargs["a"], "shape", ())
    n = shape[-1] if shape else 0
    batch = math.prod(shape[:-2]) if len(shape) > 2 else 1
    c["numerics.eigh.matrices"] += batch
    c["numerics.eigh.n3_sum"] += batch * n**3


def _quad(c, args, kwargs, result):
    c["numerics.quad.evals"] += result.evaluations
    c["numerics.quad.unconverged"] += not result.converged


def _quad_batch(c, args, kwargs, result):
    c["numerics.quad_batch.members"] += args[1] if len(args) > 1 else kwargs["n"]
    c["numerics.quad_batch.evals"] += result[2]


def _n_point(c, args, kwargs, result):
    c["momentum.modes"] += result.k_modes_used
    c["momentum.unconverged"] += not result.converged
    if result.discrepancy is not None and result.n_b != 0.0:
        gap = result.discrepancy / abs(result.n_b)
        c["momentum.route_gap_rel.max"] = max(c["momentum.route_gap_rel.max"], gap)


def _energy_sum(value, tail, k_cut, ok, c):
    c["energy.k_cutoff"] = max(c["energy.k_cutoff"], k_cut)
    if value != 0.0:
        c["energy.tail_rel"] = max(c["energy.tail_rel"], tail / abs(value))
    c["energy.unconverged"] += not ok


def _e_corr_bos(c, args, kwargs, result):
    value, tail, _, k_cut, ok = result
    _energy_sum(value, tail, k_cut, ok, c)


def _e_corr_ex(c, args, kwargs, result):
    value, tail, k_cut, ok = result
    _energy_sum(value, tail, k_cut, ok, c)


def _n_b_dv(c, args, kwargs, result):
    c["dvlimit.n_b_dv.evals"] += result.evaluations


def _n_ex_dv(c, args, kwargs, result):
    from fermigas import dvlimit
    bound = inspect.signature(dvlimit.n_ex_dv).bind(*args, **kwargs)
    bound.apply_defaults()
    c["dvlimit.n_ex_dv.samples"] += bound.arguments["samples"]


def _verify_checks(c, args, kwargs, result):
    c["verify.checks"] += len(result)
    c["verify.failed"] += sum(r.status == "fail" for r in result)


def _ordered_map(c, args, kwargs, result):
    c["parallel.ordered_map.items"] += len(result)


# (module, attribute, span name, counter function or None).  Targets in
# CALLBACK take the function they call back as their first argument.
TARGETS = [
    ("fermigas.lattice", "lune", "lattice.lune", _lune),
    ("fermigas.lattice", "orbit_reduce", "lattice.orbit_reduce", _orbit_reduce),
    ("fermigas.lattice", "nonzero_k_vectors", "lattice.enum", None),
    ("fermigas.lattice", "truncated_k_vectors", "lattice.enum", None),
    ("fermigas.lattice", "k_support", "lattice.enum", None),
    ("fermigas.lattice", "fermi_ball", "lattice.fermi_ball", None),
    ("fermigas.potential", "evaluate", "potential.evaluate", None),
    ("fermigas.quasiboson", "build_mode", "quasiboson.build_mode", None),
    ("fermigas.quasiboson", "cosh2k_minus_one_diag", "quasiboson.cosh_diag", None),
    ("fermigas.quasiboson", "q_of_s", "quasiboson.q_of_s", _q_of_s),
    ("fermigas.quasiboson", "build_K", "quasiboson.dense", None),
    ("fermigas.quasiboson", "exp_pm2K", "quasiboson.dense", None),
    ("fermigas.quasiboson", "csk_pair", "quasiboson.dense", None),
    ("numpy.linalg", "eigh", "numerics.eigh", _eigh),
    ("fermigas.numerics", "integrate_interval", "numerics.quad", _quad),
    ("fermigas.numerics", "integrate_semi_infinite", "numerics.quad", _quad),
    ("fermigas.numerics", "integrate_semi_infinite_batch", "numerics.quad_batch",
     _quad_batch),
    ("fermigas.numerics", "sym_matrix_function", "numerics.matfn", None),
    ("fermigas.momentum", "n_point", "momentum.n_point", _n_point),
    ("fermigas.energy", "e_fs", "energy.e_fs", None),
    ("fermigas.energy", "e_corr_bos", "energy.e_corr_bos", _e_corr_bos),
    ("fermigas.energy", "e_corr_ex", "energy.e_corr_ex", _e_corr_ex),
    ("fermigas.dvlimit", "n_b_dv", "dvlimit.n_b_dv", _n_b_dv),
    ("fermigas.dvlimit", "n_ex_dv", "dvlimit.n_ex_dv", _n_ex_dv),
    ("fermigas.verify", "check_lattice", "verify.check_lattice", _verify_checks),
    ("fermigas.verify", "check_mode", "verify.check_mode", _verify_checks),
    ("fermigas.verify", "check_cross", "verify.check_cross", _verify_checks),
    ("fermigas.parallel", "ordered_map", "parallel.ordered_map", _ordered_map),
    ("fermigas.cli", "_emit", "cli.emit", None),
    ("fermigas.verify", "reports_to_json", "cli.emit", None),
]

CALLBACK = {"numerics.quad", "numerics.quad_batch", "parallel.ordered_map"}

# Per-layer metrics: name -> (unit, span name or None).  A metric whose
# span has no installed target is absent.  ``.calls`` and ``.self_s``
# come from the spans, the rest from the counter functions above or
# from the worker itself (cli.output_bytes, proc.cpu_s).
METRICS = {
    "lattice.lune.calls": ("count", "lattice.lune"),
    "lattice.lune.self_s": ("s", "lattice.lune"),
    "lattice.lune.points": ("count", "lattice.lune"),
    "lattice.orbit_reduce.self_s": ("s", "lattice.orbit_reduce"),
    "lattice.orbit_reduce.k_in": ("count", "lattice.orbit_reduce"),
    "lattice.orbit_reduce.reps_out": ("count", "lattice.orbit_reduce"),
    "lattice.enum.self_s": ("s", "lattice.enum"),
    "lattice.fermi_ball.self_s": ("s", "lattice.fermi_ball"),
    "potential.evaluate.calls": ("count", "potential.evaluate"),
    "potential.evaluate.self_s": ("s", "potential.evaluate"),
    "quasiboson.build_mode.calls": ("count", "quasiboson.build_mode"),
    "quasiboson.build_mode.self_s": ("s", "quasiboson.build_mode"),
    "quasiboson.cosh_diag.calls": ("count", "quasiboson.cosh_diag"),
    "quasiboson.cosh_diag.self_s": ("s", "quasiboson.cosh_diag"),
    "quasiboson.q_of_s.calls": ("count", "quasiboson.q_of_s"),
    "quasiboson.q_of_s.nodes": ("count", "quasiboson.q_of_s"),
    "quasiboson.q_of_s.self_s": ("s", "quasiboson.q_of_s"),
    "quasiboson.dense.self_s": ("s", "quasiboson.dense"),
    "numerics.eigh.calls": ("count", "numerics.eigh"),
    "numerics.eigh.matrices": ("count", "numerics.eigh"),
    "numerics.eigh.n3_sum": ("count", "numerics.eigh"),
    "numerics.eigh.self_s": ("s", "numerics.eigh"),
    "numerics.quad.calls": ("count", "numerics.quad"),
    "numerics.quad.evals": ("count", "numerics.quad"),
    "numerics.quad.unconverged": ("count", "numerics.quad"),
    "numerics.quad.self_s": ("s", "numerics.quad"),
    "numerics.quad_batch.calls": ("count", "numerics.quad_batch"),
    "numerics.quad_batch.members": ("count", "numerics.quad_batch"),
    "numerics.quad_batch.evals": ("count", "numerics.quad_batch"),
    "numerics.quad_batch.self_s": ("s", "numerics.quad_batch"),
    "numerics.matfn.calls": ("count", "numerics.matfn"),
    "numerics.matfn.self_s": ("s", "numerics.matfn"),
    "momentum.n_point.calls": ("count", "momentum.n_point"),
    "momentum.n_point.self_s": ("s", "momentum.n_point"),
    "momentum.modes": ("count", "momentum.n_point"),
    "momentum.unconverged": ("count", "momentum.n_point"),
    "momentum.route_gap_rel.max": ("ratio", "momentum.n_point"),
    "energy.e_fs.self_s": ("s", "energy.e_fs"),
    "energy.e_corr_bos.self_s": ("s", "energy.e_corr_bos"),
    "energy.e_corr_ex.self_s": ("s", "energy.e_corr_ex"),
    "energy.k_cutoff": ("radius", "energy.e_corr_bos"),
    "energy.tail_rel": ("ratio", "energy.e_corr_bos"),
    "energy.unconverged": ("count", "energy.e_corr_bos"),
    "dvlimit.n_b_dv.self_s": ("s", "dvlimit.n_b_dv"),
    "dvlimit.n_b_dv.evals": ("count", "dvlimit.n_b_dv"),
    "dvlimit.n_ex_dv.self_s": ("s", "dvlimit.n_ex_dv"),
    "dvlimit.n_ex_dv.samples": ("count", "dvlimit.n_ex_dv"),
    "verify.check_lattice.self_s": ("s", "verify.check_lattice"),
    "verify.check_mode.self_s": ("s", "verify.check_mode"),
    "verify.check_cross.self_s": ("s", "verify.check_cross"),
    "verify.checks": ("count", "verify.check_lattice"),
    "verify.failed": ("count", "verify.check_lattice"),
    "parallel.ordered_map.calls": ("count", "parallel.ordered_map"),
    "parallel.ordered_map.items": ("count", "parallel.ordered_map"),
    "parallel.ordered_map.self_s": ("s", "parallel.ordered_map"),
    "cli.emit.self_s": ("s", "cli.emit"),
    "cli.output_bytes": ("B", None),
    "proc.cpu_s": ("s", None),
}


class Tracer:
    """In-memory span store for one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()

    def wrap(self, name, fn, count):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counters = self.parents, self.stack, self.counters
        clock = time.perf_counter
        callback = name in CALLBACK

        def traced(*args, **kwargs):
            if callback:
                if args:
                    args = (self.wrap("", args[0], None),) + args[1:]
                else:
                    key = "fn" if "fn" in kwargs else "f"
                    kwargs[key] = self.wrap("", kwargs[key], None)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name or "callback")
        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        names, parents = self.names, self.parents
        child = [0.0] * len(self.starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name in enumerate(names):
            own = self.ends[i] - self.starts[i] - child[i]
            if name:
                calls[name] += 1
            else:
                j = parents[i]
                while j >= 0 and (not names[j] or names[j] in CALLBACK):
                    j = parents[j]
                if j < 0:
                    continue
                name = names[j]
            self_s[name] += own
        return self_s, calls

    def metrics(self, extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the names of absent metrics."""
        self_s, calls = self.self_times()
        values, absent = {}, []
        for metric, (_, span) in METRICS.items():
            if span is not None and span not in self.installed:
                absent.append(metric)
                values[metric] = 0.0
            elif metric in extra:
                values[metric] = float(extra[metric])
            elif metric.endswith(".self_s"):
                values[metric] = self_s.get(metric[:-len(".self_s")], 0.0)
            elif metric.endswith(".calls"):
                values[metric] = float(calls.get(metric[:-len(".calls")], 0))
            else:
                values[metric] = float(self.counters.get(metric, 0.0))
        return values, absent


def install(tracer: Tracer) -> None:
    """Wrap every existing target; rebind it wherever fermigas refers to it."""
    for module_name, attr, span, count in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span, original, count)
        setattr(module, attr, wrapped)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fermigas" or name.startswith("fermigas.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
        tracer.installed.add(span)
