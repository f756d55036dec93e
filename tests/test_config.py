import copy
import re

import pytest

from potkit.config import CONFIG_SCHEMA, validate_config
from potkit.errors import ConfigError

# the JSON Schema keywords validate_config implements
SUPPORTED = {"type", "properties", "required", "additionalProperties", "enum", "items",
             "prefixItems", "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
             "exclusiveMaximum"}


def _schemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schemas(sub)
    if "items" in schema:
        yield from _schemas(schema["items"])
    for sub in schema.get("prefixItems", []):
        yield from _schemas(sub)


def test_schema_uses_only_checked_keywords():
    """A keyword outside the checked subset would be ignored silently."""
    for node in _schemas(CONFIG_SCHEMA):
        assert set(node) <= SUPPORTED, sorted(set(node) - SUPPORTED)
        assert node.get("type", "object") in {"object", "array", "string", "number",
                                              "integer"}
        assert node.get("additionalProperties", False) is False
        assert isinstance(node.get("items", {}), dict)


BASE = {
    "name": "table",
    "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2},
    "operator": {"kind": "fractional", "alpha": 0.5},
    "measure": {"atoms": [[[0.0, 0.0], 1.0]],
                "density": {"kind": "constant", "value": 1.0}},
    "grid": {"h": 0.125, "node_cap": 1000},
    "levels": [0.25, 0.5],
    "seed": 7,
    "samples": 100,
}


_DELETE = object()


def _edit(path, value):
    cfg = copy.deepcopy(BASE)
    *head, last = path.split(".")
    node = cfg
    for key in head:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if value is _DELETE:
        del node[last]
    elif isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
    return cfg


def test_base_config_validates():
    assert validate_config(copy.deepcopy(BASE)) == BASE


@pytest.mark.parametrize("keyword, edit, value, field, message", [
    ("type", "seed", 7.0, "seed", "7.0 is not of type 'integer'"),
    ("type", "samples", True, "samples", "True is not of type 'integer'"),
    ("type", "grid.h", True, "grid.h", "True is not of type 'number'"),
    ("type", "name", 3, "name", "3 is not of type 'string'"),
    ("type", "levels", 0.5, "levels", "0.5 is not of type 'array'"),
    ("type", "grid", [0.125], "grid", "[0.125] is not of type 'object'"),
    ("properties", "measure.density.value", "1", "measure.density.value",
     "'1' is not of type 'number'"),
    ("required", "operator", _DELETE, "<root>", "'operator' is a required property"),
    ("required", "measure.density.kind", _DELETE, "measure.density",
     "'kind' is a required property"),
    ("additionalProperties", "bogus", 1, "<root>",
     "Additional properties are not allowed ('bogus' was unexpected)"),
    ("additionalProperties", "grid.hh", 1, "grid",
     "Additional properties are not allowed ('hh' was unexpected)"),
    ("enum", "operator.kind", "wave", "operator.kind",
     "'wave' is not one of ['laplacian', 'fractional', 'divergence']"),
    ("items", "levels.1", -1.0, "levels.1",
     "-1.0 is less than or equal to the minimum of 0"),
    ("items", "domain.center.0", None, "domain.center.0",
     "None is not of type 'number'"),
    ("minItems", "levels", [], "levels", "[] should be non-empty"),
    ("minItems", "measure.atoms.0", [[0.0, 0.0]], "measure.atoms.0",
     "[[0.0, 0.0]] is too short"),
    ("maxItems", "measure.atoms.0", [[0.0, 0.0], 1.0, 2.0], "measure.atoms.0",
     "[[0.0, 0.0], 1.0, 2.0] is too long"),
    ("minimum", "samples", 0, "samples", "0 is less than the minimum of 2"),
    ("minimum", "samples", 1, "samples", "1 is less than the minimum of 2"),
    ("minimum", "seed", -1, "seed", "-1 is less than the minimum of 0"),
    ("maximum", "domain.dim", 4, "domain.dim", "4 is greater than the maximum of 3"),
    ("exclusiveMinimum", "grid.h", 0, "grid.h",
     "0 is less than or equal to the minimum of 0"),
    ("exclusiveMaximum", "operator.alpha", 2, "operator.alpha",
     "2 is greater than or equal to the maximum of 2"),
    ("finite", "grid.h", float("nan"), "grid.h", "nan is not a finite number"),
    ("finite", "domain.radius", float("inf"), "domain.radius",
     "inf is not a finite number"),
    ("finite", "measure.density.value", float("nan"), "measure.density.value",
     "nan is not a finite number"),
    ("finite", "measure.atoms.0.1", float("nan"), "measure.atoms.0.1",
     "nan is not a finite number"),
    ("finite", "measure.atoms.0.0.1", float("-inf"), "measure.atoms.0.0.1",
     "-inf is not a finite number"),
    ("finite", "measure.atoms.0.0", float("inf"), "measure.atoms.0.0",
     "inf is not a finite number"),
    ("prefixItems", "measure.atoms.0.1", "1", "measure.atoms.0.1",
     "'1' is not of type 'number'"),
    ("prefixItems", "measure.atoms.0.0.0", None, "measure.atoms.0.0.0",
     "None is not of type 'number'"),
])
def test_rejected_config_names_field(keyword, edit, value, field, message):
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(f'config field {field!r}: {message}')}$"):
        validate_config(_edit(edit, value))


def test_first_violation_in_document_order():
    # an object's required and unknown keys come before its fields' values
    cfg = _edit("domain.kind", "hexagon")
    cfg["bogus"] = 1
    with pytest.raises(ConfigError, match="^config field '<root>': Additional"):
        validate_config(cfg)
    # among fields, the first in the document is reported
    cfg = _edit("grid.h", -1.0)
    cfg["levels"] = []
    with pytest.raises(ConfigError, match="^config field 'grid.h': "):
        validate_config(cfg)
    del cfg["grid"]
    cfg["grid"] = {"h": -1.0}
    with pytest.raises(ConfigError, match="^config field 'levels': "):
        validate_config(cfg)


def test_several_unknown_keys_named_together():
    cfg = _edit("zeta", 1)
    cfg["alpha"] = 2
    with pytest.raises(ConfigError, match=re.escape(
            "config field '<root>': Additional properties are not allowed "
            "('alpha', 'zeta' were unexpected)")):
        validate_config(cfg)
