"""Shipped experiment presets, one per acceptance scenario.

Each preset is a complete config dict (see config.CONFIG_SCHEMA); ``get_preset``
returns a validated copy.  The verification suite consumes them by name, and
the CLI accepts ``--preset NAME`` anywhere a config file is accepted.
"""

from __future__ import annotations

import copy

from .config import validate_config
from .errors import ConfigError

_DISK = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2}
_UNIT_INTERVAL = {"kind": "interval", "a": 0.0, "b": 1.0}
_SYM_INTERVAL = {"kind": "interval", "a": -1.0, "b": 1.0}

PRESETS = {
    # kernel convergence study (interval Green column vs closed form)
    "kernel-interval-order": {
        "name": "kernel-interval-order",
        "domain": _UNIT_INTERVAL,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.5], 1.0]]},
        "grid": {"h_list": [2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10]},
        "eval_points": [[0.25]],
        "output": {"prefix": "kernel_interval_order"},
    },
    # diffuse tails: bounded potential of the unit density on the disk
    "tail-disk-density": {
        "name": "tail-disk-density",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"density": {"kind": "constant", "value": 1.0}},
        "grid": {"h": 2.0**-7},
        "rho": {"kind": "uniform"},
        "levels": [0.25, 0.3, 0.5, 1.0],
        "output": {"prefix": "tail_disk_density"},
    },
    # diffuse tails: 1d atom (non-polar singleton, bounded potential)
    "tail-interval-dirac": {
        "name": "tail-interval-dirac",
        "domain": _UNIT_INTERVAL,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.5], 1.0]]},
        "grid": {"h": 2.0**-10},
        "rho": {"kind": "constant", "value": 1.0},
        "levels": [0.25, 0.5, 1.0],
        "output": {"prefix": "tail_interval_dirac"},
    },
    # concentrated tails: disk Dirac across refinements
    "tail-disk-dirac": {
        "name": "tail-disk-dirac",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
        "grid": {"h_list": [2.0**-7, 2.0**-8, 2.0**-9]},
        "rho": {"kind": "uniform"},
        "levels": [0.25, 0.5],
        "output": {"prefix": "tail_disk_dirac"},
    },
    # mixed measure: atom plus a large constant density
    "tail-disk-mixed": {
        "name": "tail-disk-mixed",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]],
                    "density": {"kind": "constant", "value": 4.0}},
        "grid": {"h": 2.0**-7},
        "rho": {"kind": "uniform"},
        "levels": [0.25, 0.5, 1.0],
        "output": {"prefix": "tail_disk_mixed"},
    },
    # local reconstruction: window energy of the disk Dirac potential
    "reconstruct-local-disk-dirac": {
        "name": "reconstruct-local-disk-dirac",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
        "eta": {"kind": "constant", "value": 1.0},
        "levels": [0.125, 0.25, 0.5],
        "output": {"prefix": "reconstruct_local_disk_dirac"},
    },
    # nonlocal reconstruction: interval Dirac for the 1/2-stable generator
    "reconstruct-nonlocal-interval": {
        "name": "reconstruct-nonlocal-interval",
        "domain": _SYM_INTERVAL,
        "operator": {"kind": "fractional", "alpha": 0.5},
        "measure": {"atoms": [[[0.0], 1.0]]},
        "eta": {"kind": "smoothstep", "center": [0.0], "r_one": 0.25,
                "r_zero": 0.75},
        "levels": [1.0, 2.0, 4.0, 8.0, 16.0],
        "tolerances": {"quad_rel": 0.01},
        "output": {"prefix": "reconstruct_nonlocal_interval"},
    },
    # stopped expectation along the reducing family (disk Dirac benchmark)
    "mc-reducing-disk": {
        "name": "mc-reducing-disk",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
        "k": 4.0,
        "n": 1.0,
        "start": [0.5, 0.0],
        "samples": 100000,
        "seed": 20240817,
        "output": {"prefix": "mc_reducing_disk"},
    },
    # class-(D) verdicts
    "mc-classd-bounded": {
        "name": "mc-classd-bounded",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"density": {"kind": "constant", "value": 1.0}},
        "rho": {"kind": "uniform"},
        "family": [0.05, 0.1, 0.2],
        "levels": [0.1, 0.3, 0.5],
        "samples": 20000,
        "seed": 7141,
        "output": {"prefix": "mc_classd_bounded"},
    },
    "mc-classd-dirac": {
        "name": "mc-classd-dirac",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
        "rho": {"kind": "uniform"},
        "family": [2.0, 4.0, 8.0, 16.0],
        "levels": [0.125, 0.25, 0.5, 1.0],
        "samples": 30000,
        "seed": 7141,
        "output": {"prefix": "mc_classd_dirac"},
    },
    # pathwise maximal inequality
    "mc-maximal-bounded": {
        "name": "mc-maximal-bounded",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "measure": {"density": {"kind": "constant", "value": 1.0}},
        "rho": {"kind": "uniform"},
        "grid": {"h": 2.0**-6},
        "samples": 20000,
        "seed": 99,
        "output": {"prefix": "mc_maximal_bounded"},
    },
    "mc-maximal-interval-dirac": {
        "name": "mc-maximal-interval-dirac",
        "domain": _UNIT_INTERVAL,
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.5], 1.0]]},
        "rho": {"kind": "constant", "value": 1.0},
        "grid": {"h": 2.0**-10},
        "samples": 20000,
        "seed": 99,
        "output": {"prefix": "mc_maximal_interval_dirac"},
    },
    # grid identity suite (projection algebra on a 64x64 disk grid)
    "grid-identities": {
        "name": "grid-identities",
        "domain": _DISK,
        "operator": {"kind": "laplacian"},
        "grid": {"h": 2.0 / 64.0},
        "seed": 31,
        "output": {"prefix": "grid_identities"},
    },
    # envelope oracle on 1d path graphs
    "reduite-oracle": {
        "name": "reduite-oracle",
        "domain": _UNIT_INTERVAL,
        "operator": {"kind": "laplacian"},
        "grid": {"h": 1.0 / 40.0},
        "n": 0.05,
        "measure": {"atoms": [[[0.325], 1.0]]},
        "output": {"prefix": "reduite_oracle"},
    },
    # window-identity quadrature suite
    "window-identity": {
        "name": "window-identity",
        "domain": _SYM_INTERVAL,
        "operator": {"kind": "fractional", "alpha": 0.5},
        "samples": 100,
        "seed": 5,
        "output": {"prefix": "window_identity"},
    },
}

STOCHASTIC_PRESETS = [
    "mc-reducing-disk",
    "mc-classd-bounded",
    "mc-classd-dirac",
    "mc-maximal-bounded",
    "mc-maximal-interval-dirac",
]


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}")
    return validate_config(copy.deepcopy(PRESETS[name]))
