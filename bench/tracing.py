"""In-memory span tracing of potkit's layer entry points, from outside.

A ``Tracer`` replaces selected potkit functions and methods by wrappers
that record a span (name, start, end, parent) per call, plus counts taken
from arguments or return values.  A few private callees are wrapped as
count-only hooks because no public return value carries their counts.
Everything is restored by ``uninstall``.  Names that a refactor removed are
recorded as absent with a warning instead of failing the run, and hooks
that were installed but never called are reported as unused.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


LAYERS = ("geometry", "discrete", "envelope", "solve", "reconstruct", "stochastic")

# (module, attribute, annotate(args, kwargs, result) -> counts)
SPANS = [
    ("geometry", "build_grid", lambda a, k, r: {"unknowns": r.n_interior}),
    ("discrete", "assemble", lambda a, k, r: {"nnz": r.A.nnz, "unknowns": r.n}),
    ("discrete", "discrete_green", None),
    ("discrete", "DiscreteOperator.solve", None),
    ("envelope", "tail_curve", None),
    ("envelope", "envelope_field", None),
    ("envelope", "d1_norm", None),
    ("envelope", "reduite", lambda a, k, r: {
        "sweeps": r.iterations, "node_sweeps": r.iterations * _arg(a, k, 0, "dop").n,
        "residual": r.residual}),
    ("solve", "integral_solution", None),
    ("solve", "Solution.evaluate", lambda a, k, r: {"points": _rows(_arg(a, k, 1, "points"))}),
    ("reconstruct", "reconstruct_mu_c", None),
    ("reconstruct", "nonlocal_energy", None),
    ("stochastic", "reducing_expectation", None),
    ("stochastic", "class_d_diagnostic", None),
    ("stochastic", "maximal_inequality_check", lambda a, k, r: {"walkers": r.n_samples}),
    ("stochastic", "stopped_values", lambda a, k, r: {"walkers": _rows(_arg(a, k, 2, "x0"))}),
    ("stochastic", "stable_exit", None),
]

# private callees: counted on the innermost open span, no span of their own
HOOKS = [
    ("stochastic", "_unit_directions",
     lambda a, k, r: {"wos_loop_iters": 1, "wos_path_steps": int(r.shape[0])}),
    ("stochastic", "isotropic_stable_increments",
     lambda a, k, r: {"stable_steps": int(r.shape[0])}),
    ("reconstruct", "_graded_panels_1d",
     lambda a, k, r: {"quad_levels": 1, "quad_nodes": int(r[0].size)}),
]


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []        # (owner, attribute, original)
        self.absent = []          # hooks or spans whose target is missing
        self.hook_calls = defaultdict(int)
        self.last = {}            # span name -> its last return value

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _count(self, counts):
        if self._stack:
            top = self._stack[-1]["counts"]
            for key, val in counts.items():
                top[key] = top.get(key, 0) + val

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, annotate):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if annotate is not None:
                rec["counts"].update(self._annotate(name, annotate, args, kwargs, out))
            self.last[name] = out
            return out
        return wrapper

    def _annotate(self, name, annotate, args, kwargs, out) -> dict:
        """Counts from a call; a refactored signature or return value makes
        the count absent instead of failing the run."""
        try:
            return annotate(args, kwargs, out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self._missing(f"{name} counts")
            return {}

    def _hook_wrapper(self, name, fn, annotate):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.hook_calls[name] += 1
            self._count(self._annotate(name, annotate, args, kwargs, out))
            return out
        return wrapper

    def _cg_wrapper(self, fn):
        def cg(A, b, *args, callback=None, **kwargs):
            iters = 0

            def counting(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)
            rec = self._open("discrete.cg")
            try:
                return fn(A, b, *args, callback=counting, **kwargs)
            finally:
                self._close(rec)
                rec["counts"]["cg_iters"] = iters
                self.hook_calls["discrete.cg"] += 1
        return cg

    def _replace(self, module, attr, make):
        """Wrap ``module.attr`` (``Class.method`` allowed) wherever potkit's
        modules hold it; returns False if the name does not exist."""
        mod = sys.modules.get(f"potkit.{module}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or not hasattr(owner, name):
            return False
        orig = getattr(owner, name)
        wrapped = make(orig)
        if owner_name:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapped)
            return True
        for mname, m in list(sys.modules.items()):
            if mname == "potkit" or mname.startswith("potkit."):
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, val))
                        setattr(m, key, wrapped)
        return True

    def _missing(self, name):
        if name in self.absent:
            return
        self.absent.append(name)
        warnings.warn(f"trace: {name} not found; recorded as absent", stacklevel=3)

    def install(self):
        for module, attr, annotate in SPANS:
            name = f"{module}.{attr.rpartition('.')[2]}"
            if not self._replace(module, attr,
                                 lambda fn, n=name, a=annotate: self._span_wrapper(n, fn, a)):
                self._missing(name)
        for module, attr, annotate in HOOKS:
            name = f"{module}.{attr}"
            if not self._replace(module, attr,
                                 lambda fn, n=name, a=annotate: self._hook_wrapper(n, fn, a)):
                self._missing(name)
        # the scipy ``cg`` that potkit.discrete calls through its ``spla`` alias
        disc = sys.modules.get("potkit.discrete")
        spla = getattr(disc, "spla", None)
        if spla is None or not hasattr(spla, "cg"):
            self._missing("discrete.cg")
        else:
            self._patches.append((disc, "spla", spla))
            disc.spla = _ModuleProxy(spla, cg=self._cg_wrapper(spla.cg))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def unused_hooks(self) -> list:
        names = [f"{m}.{a}" for m, a, _ in HOOKS] + ["discrete.cg"]
        return [n for n in names if n not in self.absent and self.hook_calls[n] == 0]

    # -- derived metrics ---------------------------------------------------

    def subtree(self, root_id) -> list:
        keep = {root_id}
        out = []
        for rec in self.spans:          # parents precede children
            if rec["parent"] in keep:
                keep.add(rec["id"])
                out.append(rec)
        return out

    @staticmethod
    def self_times(spans) -> dict:
        child = defaultdict(float)
        for rec in spans:
            child[rec["parent"]] += rec["end"] - rec["start"]
        return {rec["id"]: rec["end"] - rec["start"] - child[rec["id"]] for rec in spans}

    def layer_metrics(self, pass_id, setup_id) -> dict:
        """The per-layer metrics of one traced pass (and its set-up)."""
        spans = self.subtree(pass_id)
        own = self.self_times(spans)
        dur = defaultdict(float)
        calls = defaultdict(int)
        for rec in spans:
            dur[rec["name"]] += rec["end"] - rec["start"]
            calls[rec["name"]] += 1

        def total(key):
            return sum(rec["counts"].get(key, 0) for rec in spans)

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def self_where(key):
            return sum(own[rec["id"]] for rec in spans if rec["counts"].get(key))

        cg_iters = total("cg_iters")
        steps = total("wos_path_steps")
        slots = sum(rec["counts"].get("wos_loop_iters", 0) * rec["counts"].get("walkers", 0)
                    for rec in spans if rec["counts"].get("wos_loop_iters"))
        stable = total("stable_steps")
        m = {
            "geometry.build_grid_s": dur["geometry.build_grid"],
            "geometry.unknowns": sum(rec["counts"].get("unknowns", 0) for rec in spans
                                     if rec["name"] == "geometry.build_grid"),
            "discrete.assemble_s": dur["discrete.assemble"],
            "discrete.nnz": total("nnz"),
            "discrete.solve_s": dur["discrete.solve"],
            "discrete.solve_calls": calls["discrete.solve"],
            "discrete.cg_iters": cg_iters,
            "discrete.cg_ms_per_iter": per(dur["discrete.cg"], cg_iters, 1e3),
            "discrete.green_s": dur["discrete.discrete_green"],
            "envelope.tail_curve_s": dur["envelope.tail_curve"],
            "envelope.envelope_field_s": dur["envelope.envelope_field"],
            "envelope.reduite_s": dur["envelope.reduite"],
            "envelope.reduite_calls": calls["envelope.reduite"],
            "envelope.psor_sweeps": total("sweeps"),
            "envelope.ns_per_node_sweep": per(dur["envelope.reduite"], total("node_sweeps"), 1e9),
            "envelope.residual_max": max((rec["counts"]["residual"] for rec in spans
                                          if "residual" in rec["counts"]), default=0.0),
            "solve.integral_solution_s": sum(rec["end"] - rec["start"]
                                             for rec in self.subtree(setup_id)
                                             if rec["name"] == "solve.integral_solution"),
            "solve.evaluate_s": dur["solve.evaluate"],
            "solve.evaluate_points": total("points"),
            "reconstruct.nonlocal_energy_s": dur["reconstruct.nonlocal_energy"],
            "reconstruct.nonlocal_calls": calls["reconstruct.nonlocal_energy"],
            "reconstruct.quad_levels": total("quad_levels"),
            "reconstruct.quad_nodes": total("quad_nodes"),
            "stochastic.reducing_s": dur["stochastic.reducing_expectation"],
            "stochastic.classd_s": dur["stochastic.class_d_diagnostic"],
            "stochastic.maximal_s": dur["stochastic.maximal_inequality_check"],
            "stochastic.stable_exit_s": dur["stochastic.stable_exit"],
            "stochastic.wos_loop_iters": total("wos_loop_iters"),
            "stochastic.wos_path_steps": steps,
            "stochastic.wos_active_fraction": per(steps, slots),
            "stochastic.wos_ns_per_path_step": per(self_where("wos_path_steps"), steps, 1e9),
            "stochastic.stable_steps": stable,
            "stochastic.stable_ns_per_step": per(self_where("stable_steps"), stable, 1e9),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(own[rec["id"]] for rec in spans
                                       if rec["name"].startswith(layer + "."))
        return m

    def per_call(self, root_id) -> dict:
        """Iteration counts of each linear solve and each reduite, in call order."""
        out = {"discrete.cg": [], "envelope.reduite": []}
        for rec in self.subtree(root_id):
            if rec["name"] == "discrete.cg":
                out["discrete.cg"].append(rec["counts"]["cg_iters"])
            elif rec["name"] == "envelope.reduite":
                out["envelope.reduite"].append(rec["counts"].get("sweeps"))
        return out

    def by_entry(self, root_id) -> dict:
        """Counts summed per top-level entry point (direct child of the root)."""
        entry_of = {}
        out = defaultdict(lambda: defaultdict(int))
        for rec in self.subtree(root_id):
            entry = rec if rec["parent"] == root_id else entry_of[rec["parent"]]
            entry_of[rec["id"]] = entry
            for key, val in rec["counts"].items():
                if key in ("wos_loop_iters", "wos_path_steps", "stable_steps", "cg_iters",
                           "sweeps", "quad_levels", "quad_nodes"):
                    out[entry["name"]][key] += val
        return {k: dict(v) for k, v in out.items()}
