"""Experiment configuration: YAML schema, validation and object builders.

A config is one structured document naming the domain, operator, measure,
grid, weight, levels, seeds and tolerances.  Validation reports the path of
the offending field.  Builders turn the validated dict into toolkit objects;
``build_problem``, ``build_grid_operator`` and ``build_solution`` are the one
path from a config to u that the CLI and the acceptance suite share.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from .discrete import DiscreteOperator, assemble
from .errors import ConfigError
from .geometry import DEFAULT_NODE_CAP, Domain, Grid, build_grid
from .kernels import OperatorSpec
from .measures import Density, MeasureData
from .reconstruct import CutoffEta, constant_eta
from .solve import Solution, closed_form_supported, grid_solution, integral_solution

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "domain": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["interval", "ball", "rectangle"]},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "center": {"type": "array", "items": {"type": "number"}},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "dim": {"type": "integer", "minimum": 1, "maximum": 3},
                "bounds": {"type": "array",
                           "items": {"type": "array", "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "operator": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["laplacian", "fractional", "divergence"]},
                "alpha": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 2},
                "coeff_preset": {"enum": ["identity", "smooth"]},
                "lam": {"type": "number", "exclusiveMinimum": 0},
                "Lam": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "measure": {
            "type": "object",
            "properties": {
                "atoms": {"type": "array",
                          "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                    # [point, weight]; a point is a number or
                                    # an array of coordinates
                                    "prefixItems": [{"items": {"type": "number"}},
                                                    {"type": "number"}]}},
                "density": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["constant", "gaussian"]},
                        "value": {"type": "number"},
                        "sigma": {"type": "number", "exclusiveMinimum": 0},
                        "center": {"type": "array", "items": {"type": "number"}},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "h_list": {"type": "array",
                           "items": {"type": "number", "exclusiveMinimum": 0}},
                "node_cap": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "rho": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["uniform", "constant"]},
                "value": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "eta": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["constant", "smoothstep"]},
                "value": {"type": "number"},
                "center": {"type": "array", "items": {"type": "number"}},
                "r_one": {"type": "number", "exclusiveMinimum": 0},
                "r_zero": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "levels": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "family": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "k": {"type": "number", "exclusiveMinimum": 0},
        "n": {"type": "number", "exclusiveMinimum": 0},
        "start": {"type": "array", "items": {"type": "number"}},
        "seed": {"type": "integer", "minimum": 0},
        "samples": {"type": "integer", "minimum": 2},
        "eval_points": {"type": "array",
                        "items": {"type": "array", "items": {"type": "number"}}},
        "tolerances": {
            "type": "object",
            "properties": {
                "reduite": {"type": "number", "exclusiveMinimum": 0},
                "quad_rel": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"prefix": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "required": ["domain", "operator"],
    "additionalProperties": False,
}

_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}
_BOUNDS = (("minimum", operator.lt, "less than the minimum"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum"),
           ("maximum", operator.gt, "greater than the maximum"),
           ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum"))


def _violation(value, schema: dict, path: tuple):
    """First place ``value`` breaks ``schema``, as (path, message), else None.

    Implements the JSON Schema keywords CONFIG_SCHEMA uses, with jsonschema's
    messages, plus one rule of its own: a number must be finite (NaN passes
    every bound, and no field means anything at +-inf).  A bool is neither a
    number nor an integer, and an integer is a Python int.  An object's
    required and unknown keys are checked before its fields; fields and
    items are visited in document order.
    """
    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])):
        return path, f"{value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    children = []
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        extra = sorted((k for k in value if k not in props), key=str)
        if extra and schema.get("additionalProperties") is False:
            verb = "was" if len(extra) == 1 else "were"
            return path, ("Additional properties are not allowed "
                          f"({', '.join(map(repr, extra))} {verb} unexpected)")
        children = [(value[k], props[k], path + (k,)) for k in value if k in props]
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            return path, f"{value!r} {short}"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} is too long"
        subs = schema.get("prefixItems", []) + [schema.get("items")] * len(value)
        children = [(v, sub, path + (i,))
                    for i, (v, sub) in enumerate(zip(value, subs)) if sub is not None]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and not math.isfinite(value):
            return path, f"{value!r} is not a finite number"
        for key, breaks, words in _BOUNDS:
            if key in schema and breaks(value, schema[key]):
                return path, f"{value!r} is {words} of {schema[key]!r}"
    for child, sub, where in children:
        found = _violation(child, sub, where)
        if found:
            return found
    return None


def validate_config(cfg: dict) -> dict:
    found = _violation(cfg, CONFIG_SCHEMA, ())
    if found:
        path = ".".join(str(p) for p in found[0]) or "<root>"
        raise ConfigError(f"config field '{path}': {found[1]}")
    return cfg


def load_config(path: str) -> dict:
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a mapping at the top level")
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _coeff_presets():
    return {
        "identity": (lambda pts: np.ones(np.atleast_2d(pts).shape[0]), 1.0, 1.0),
        "smooth": (lambda pts: 1.0 + 0.5 * np.sin(
            math.pi * np.atleast_2d(pts)[:, 0]), 0.5, 1.5),
    }


def _require(section: dict, name: str, keys) -> None:
    """ConfigError naming the first of ``keys`` that ``section`` lacks."""
    for key in keys:
        if key not in section:
            raise ConfigError(f"config field '{name}.{key}': required for "
                              f"kind {section['kind']!r}")


def build_domain(cfg: dict) -> Domain:
    d = cfg["domain"]
    _require(d, "domain", {"interval": ("a", "b"), "ball": ("center", "radius", "dim"),
                           "rectangle": ("bounds",)}[d["kind"]])
    with _rejected_field("domain"):
        if d["kind"] == "interval":
            return Domain.interval(d["a"], d["b"])
        if d["kind"] == "ball":
            return Domain.ball(d["center"], d["radius"], d["dim"])
        return Domain.rectangle(d["bounds"])


def build_operator(cfg: dict) -> OperatorSpec:
    o = cfg["operator"]
    if o["kind"] == "laplacian":
        return OperatorSpec.laplacian()
    with _rejected_field("operator"):
        if o["kind"] == "fractional":
            _require(o, "operator", ("alpha",))
            return OperatorSpec.fractional(o["alpha"])
        fn, lam, Lam = _coeff_presets()[o.get("coeff_preset", "identity")]
        return OperatorSpec.divergence(fn, o.get("lam", lam), o.get("Lam", Lam))


@contextmanager
def _rejected_field(section: str):
    """Re-raise a constructor's ValueError as a ConfigError naming the field."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config field '{section}': {exc}") from exc


def _center(section: dict, name: str, dom: Domain) -> list:
    """``section``'s center, the domain's anchor by default; ConfigError
    naming ``name.center`` when it is not a point of the domain."""
    center = section.get("center", list(dom.anchor))
    if len(center) != dom.dim:
        raise ConfigError(f"config field '{name}.center': {center} has {len(center)} "
                          f"coordinates, the domain is {dom.dim}-d")
    return center


def build_measure(cfg: dict, dom: Domain) -> MeasureData:
    m = cfg.get("measure", {})
    atoms = []
    for point, weight in m.get("atoms", []):
        pt = point if isinstance(point, (list, tuple)) else [point]
        atoms.append((pt, weight))
    density = None
    if "density" in m:
        dd = m["density"]
        if dd["kind"] == "constant":
            density = Density.constant(dd.get("value", 1.0))
        else:
            density = Density.gaussian(dd.get("value", 1.0), dd.get("sigma", 0.25),
                                       _center(dd, "measure.density", dom))
    return MeasureData.make(atoms=atoms, density=density, dom=dom)


def build_rho(cfg: dict, dom: Domain) -> Callable:
    r = cfg.get("rho", {"kind": "uniform"})
    if r["kind"] == "uniform":
        level = 1.0 / dom.volume()
    else:
        _require(r, "rho", ("value",))
        level = float(r["value"])
    return lambda pts: np.full(np.atleast_2d(pts).shape[0], level)


def build_eta(cfg: dict, dom: Domain) -> Callable:
    e = cfg.get("eta", {"kind": "constant"})
    if e["kind"] == "constant":
        return constant_eta(e.get("value", 1.0))
    _require(e, "eta", ("r_one", "r_zero"))
    center = _center(e, "eta", dom)
    with _rejected_field("eta"):
        return CutoffEta(center=tuple(center), r_one=e["r_one"], r_zero=e["r_zero"])


def grid_widths(cfg: dict) -> list:
    g = cfg.get("grid", {})
    if "h_list" in g:
        return [float(h) for h in g["h_list"]]
    if "h" in g:
        return [float(g["h"])]
    return []


def build_problem(cfg: dict) -> tuple:
    """The config's (domain, operator, measure)."""
    dom = build_domain(cfg)
    return dom, build_operator(cfg), build_measure(cfg, dom)


def build_lattice(cfg: dict, dom: Domain, h: float) -> Grid:
    """The lattice of width h over the domain, under the config's node cap."""
    return build_grid(dom, h, cfg.get("grid", {}).get("node_cap", DEFAULT_NODE_CAP))


def build_grid_operator(cfg: dict, dom: Domain, op: OperatorSpec,
                        h: Optional[float] = None) -> DiscreteOperator:
    """The operator assembled on the lattice of width h, by default the
    config's finest; ConfigError naming 'grid' when the config has none."""
    hs = grid_widths(cfg) if h is None else [h]
    if not hs:
        raise ConfigError("config field 'grid': h or h_list required")
    return assemble(op, build_lattice(cfg, dom, hs[-1]))


def build_solution(cfg: dict, dom: Domain, op: OperatorSpec, mu: MeasureData,
                   dop: Optional[DiscreteOperator] = None) -> Solution:
    """u = R^D mu: the closed form where one exists, else the lattice solve
    on ``dop`` or, without one, on the config's finest grid."""
    if closed_form_supported(op, dom, mu):
        return integral_solution(op, dom, mu)
    return grid_solution(dop or build_grid_operator(cfg, dom, op), mu)
