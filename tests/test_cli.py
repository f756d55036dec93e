import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from potkit import cli as cli_mod
from potkit import config as config_mod
from potkit.cli import main
from potkit.config import (build_grid_operator, build_problem, build_solution,
                           validate_config)
from potkit.errors import PotkitError
from potkit.measures import total_variation
from potkit.presets import PRESETS, get_preset


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def tiny_dirac_cfg(tmp_path):
    cfg = {
        "name": "tiny-dirac",
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2},
        "operator": {"kind": "laplacian"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
        "grid": {"h": 2.0**-5},
        "rho": {"kind": "uniform"},
        "levels": [0.25, 0.5],
        "output": {"prefix": "tiny_dirac"},
    }
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_solve_interval_csv(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["solve", "--preset", "kernel-interval-order", "--out", out,
               "--quiet"])
    assert rc == 0
    lines = read(os.path.join(out, "kernel_interval_order.csv")).decode().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "x0,u"
    row = [l for l in lines if not l.startswith("#")][1].split(",")
    assert float(row[0]) == 0.25
    assert float(row[1]) == pytest.approx(0.125, abs=1e-14)


def test_tail_verdicts(tmp_path, tiny_dirac_cfg):
    out = str(tmp_path / "out")
    rc = main(["tail", "--config", tiny_dirac_cfg, "--out", out, "--quiet"])
    assert rc == 0
    rep = json.loads(read(os.path.join(out, "tiny_dirac.json")))
    assert rep["verdicts"]["verdict"] == "concentrated-like"
    assert rep["verdicts"]["limit_estimate"] == pytest.approx(
        1.0 / (4.0 * np.pi), rel=0.08)
    body = read(os.path.join(out, "tiny_dirac.csv")).decode().splitlines()
    assert [l for l in body if not l.startswith("#")][0] == "n,T_n,resolvable"
    # solver counts per level, next to the values of the one grid width
    (block,) = rep["results"].values()
    assert len(block["sweeps"]) == len(block["policy_steps"]) == 2
    # PSOR tests its update every 8 sweeps; a level whose start already meets
    # tol is not swept (0 sweeps on this local operator) and needs no policy step
    assert all(isinstance(k, int) and k % 8 == 0 for k in block["sweeps"])
    assert all(isinstance(k, int) and k >= 0 for k in block["policy_steps"])
    assert all(p == 0 for k, p in zip(block["sweeps"], block["policy_steps"]) if k == 0)
    # the relaxation of each level's last sweep, 0.0 on a level with none
    assert len(block["omega"]) == 2
    assert all(isinstance(w, float) and (w > 1.0) == (k > 0) and w < 2.0
               for w, k in zip(block["omega"], block["sweeps"]))
    # config echoed verbatim
    assert rep["config"]["grid"]["h"] == 2.0**-5


def test_idempotent_outputs(tmp_path, tiny_dirac_cfg):
    out = str(tmp_path / "out")
    main(["tail", "--config", tiny_dirac_cfg, "--out", out, "--quiet"])
    first_csv = read(os.path.join(out, "tiny_dirac.csv"))
    first_json = read(os.path.join(out, "tiny_dirac.json"))
    main(["tail", "--config", tiny_dirac_cfg, "--out", out, "--quiet"])
    assert read(os.path.join(out, "tiny_dirac.csv")) == first_csv
    assert read(os.path.join(out, "tiny_dirac.json")) == first_json


def test_reduite_subcommand(tmp_path, tiny_dirac_cfg):
    out = str(tmp_path / "out")
    rc = main(["reduite", "--config", tiny_dirac_cfg, "--out", out, "--quiet"])
    assert rc == 0
    rep = json.loads(read(os.path.join(out, "tiny_dirac_envelope.json")))
    assert rep["results"]["residual"] < 1e-9


def _cold_reduite(path):
    """The envelope of the config's tail obstacle, solved by ``reduite``
    from the obstacle itself (no warm start)."""
    from potkit.envelope import envelope_field, reduite, tail_obstacle
    cfg = validate_config(yaml.safe_load(read(path)))
    dom, op, mu = build_problem(cfg)
    dop = build_grid_operator(cfg, dom, op)
    u_abs, nodes, _ = envelope_field(build_solution(cfg, dom, op, mu, dop), dop)
    return reduite(dop, tail_obstacle(u_abs, nodes, cfg.get("n", 1.0), dop.grid))


def test_reduite_subcommand_matches_a_cold_start(tmp_path, tiny_dirac_cfg):
    """``potkit reduite`` starts from the atoms' extensions; its envelope is
    the cold-start one within tol (1e-10), and that start needs no sweep."""
    out = str(tmp_path / "out")
    assert main(["reduite", "--config", tiny_dirac_cfg, "--out", out, "--quiet"]) == 0
    rep = json.loads(read(os.path.join(out, "tiny_dirac_envelope.json")))
    assert (rep["results"]["iterations"], rep["results"]["policy_steps"]) == (0, 0)
    got = np.loadtxt(os.path.join(out, "tiny_dirac_envelope.csv"), delimiter=",",
                     skiprows=2)[:, -1]
    cold = _cold_reduite(tiny_dirac_cfg)
    assert cold.iterations > 0
    assert np.max(np.abs(got - cold.envelope.interior_values())) <= 1e-10


def test_reduite_subcommand_fractional(tmp_path, capsys):
    # the fractional envelope is solved by policy iteration, not by sweeps
    cfg = get_preset("reconstruct-nonlocal-interval")
    cfg["grid"] = {"h": 2.0**-6}
    path = tmp_path / "frac.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "out")
    rc = main(["reduite", "--config", str(path), "--out", out])
    assert rc == 0
    rep = json.loads(read(os.path.join(out, "reconstruct_nonlocal_interval_envelope.json")))
    res = rep["results"]
    assert res["iterations"] == 0 and res["omega"] == 0.0
    # the atom's extension is already the envelope: no policy step
    assert res["policy_steps"] == 0
    assert _cold_reduite(path).policy_steps >= 1
    assert res["residual"] <= 1e-13
    assert (f"envelope solved in 0 sweeps, {res['policy_steps']} policy steps, "
            "residual") in capsys.readouterr().out


def test_reconstruct_local_cli(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["reconstruct", "local", "--preset", "reconstruct-local-disk-dirac",
               "--out", out, "--quiet"])
    assert rc == 0
    rep = json.loads(read(os.path.join(out, "reconstruct_local_disk_dirac.json")))
    assert rep["verdicts"]["fitted_prefactor"] == pytest.approx(1.0, abs=1e-3)
    assert not rep["verdicts"]["prefactor_flagged"]
    assert "diagnostics" not in rep


def test_reconstruct_nonlocal_cli(tmp_path):
    cfg = {
        "name": "nl-quick",
        "domain": {"kind": "interval", "a": -1.0, "b": 1.0},
        "operator": {"kind": "fractional", "alpha": 0.5},
        "measure": {"atoms": [[[0.0], 1.0]]},
        "eta": {"kind": "smoothstep", "center": [0.0], "r_one": 0.25,
                "r_zero": 0.75},
        "levels": [1.0, 2.0],
        "output": {"prefix": "nl_quick"},
    }
    path = tmp_path / "nl.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "out")
    rc = main(["reconstruct", "nonlocal", "--config", str(path), "--out", out,
               "--quiet"])
    assert rc == 0
    body = read(os.path.join(out, "nl_quick.csv")).decode().splitlines()
    header = [l for l in body if not l.startswith("#")][0]
    assert header == "n,value,target,rel_error"
    # two lattices: the first dyadic one with 2,000 interior nodes, then half its width
    rep = json.loads(read(os.path.join(out, "nl_quick.json")))
    assert rep["diagnostics"] == {"widths": [2.0**-10, 2.0**-11], "unknowns": [2047, 4095],
                                  "resolvable": [True, True]}


def test_reconstruct_local_cli_reports_its_lattices(tmp_path):
    """A divergence operator has no closed form, so its window energy is
    read on lattices, and the report says which."""
    cfg = {
        "name": "div-lattice",
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2},
        "operator": {"kind": "divergence", "coeff_preset": "smooth"},
        "measure": {"atoms": [[[0.3, 0.0], 1.0]]},
        "grid": {"h": 0.125},
        "levels": [0.125, 0.25],
    }
    path = tmp_path / "div.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "out")
    assert main(["reconstruct", "local", "--config", str(path), "--out", out, "--quiet"]) == 0
    rep = json.loads(read(os.path.join(out, "div-lattice.json")))
    assert rep["diagnostics"] == {"widths": [2.0**-5, 2.0**-6, 2.0**-7],
                                  "unknowns": [3205, 12849, 51429],
                                  "resolvable": [True, True]}
    np.testing.assert_allclose(rep["results"]["values"], 1.0, rtol=1e-12)


def test_mc_subcommands(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["mc", "classd", "--preset", "mc-classd-bounded", "--out", out,
               "--quiet"])
    assert rc == 0
    rep = json.loads(read(os.path.join(out, "mc_classd_bounded.json")))
    assert rep["verdicts"]["verdict"] == "class-D"
    assert rep["verdicts"]["limit_estimate"] == 0.0
    assert rep["verdicts"]["limit_basis"] == "exact zero (bounded potential)"
    body = read(os.path.join(out, "mc_classd_bounded.csv")).decode().splitlines()
    assert [l for l in body if not l.startswith("#")][0] == "level,estimate,stderr"


def test_mc_reducing_reports_walk_counts(tmp_path):
    outs = [str(tmp_path / name) for name in ("o1", "o2")]
    for out in outs:
        assert main(["mc", "reducing", "--preset", "mc-reducing-disk", "--out", out,
                     "--quiet"]) == 0
    first, second = (read(os.path.join(out, "mc_reducing_disk.json")) for out in outs)
    assert first == second
    res = json.loads(first)["results"]
    # one exit-law draw per sample: the start (0.5, 0) lies outside the level circle
    assert res["draws"] == 100_000
    assert "walk_iterations" not in res


@pytest.mark.parametrize("mode,preset", [("classd", "mc-classd-bounded"),
                                         ("maximal", "mc-maximal-bounded")])
def test_mc_classd_maximal_report_walk_counts(tmp_path, mode, preset):
    out = str(tmp_path / "out")
    assert main(["mc", mode, "--preset", preset, "--out", out, "--quiet"]) == 0
    res = json.loads(read(os.path.join(out, preset.replace("-", "_") + ".json")))["results"]
    if mode == "classd":
        # at most one exit-law draw per start and family member, and no walk
        assert 0 < res["draws"] <= 20_000 * 3
        assert "walk_iterations" not in res
    else:
        # one exact smallest-radius draw per start; nothing walks, so no walk counts
        assert res["draws"] == 20_000
        assert "walk_iterations" not in res and "path_steps" not in res


def test_seed_override_changes_output(tmp_path):
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    main(["mc", "reducing", "--preset", "mc-reducing-disk", "--out", out1,
          "--seed", "1", "--quiet"])
    main(["mc", "reducing", "--preset", "mc-reducing-disk", "--out", out2,
          "--seed", "2", "--quiet"])
    assert read(os.path.join(out1, "mc_reducing_disk.csv")) != \
        read(os.path.join(out2, "mc_reducing_disk.csv"))


def test_negative_seed_override_named(tmp_path, capsys):
    # --seed is validated with the config it overrides
    rc = main(["mc", "reducing", "--preset", "mc-reducing-disk", "--seed", "-1",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert "config field 'seed': -1 is less than the minimum of 0" in capsys.readouterr().err


def test_malformed_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({
        "domain": {"kind": "hexagon"},
        "operator": {"kind": "laplacian"},
    }))
    rc = main(["tail", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "domain.kind" in err


def test_missing_required_field(tmp_path, capsys):
    path = tmp_path / "bad2.yaml"
    path.write_text(yaml.safe_dump({"domain": {"kind": "interval", "a": 0.0,
                                               "b": 1.0}}))
    rc = main(["tail", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert "operator" in capsys.readouterr().err


@pytest.mark.parametrize("command,preset,field,value", [
    ("mc maximal", "mc-maximal-bounded", "seed", None),
    ("mc reducing", "mc-reducing-disk", "k", None),
    ("mc reducing", "mc-reducing-disk", "n", None),
    ("mc reducing", "mc-reducing-disk", "start", None),
    ("mc classd", "mc-classd-bounded", "family", None),
    ("mc classd", "mc-classd-bounded", "levels", None),
    ("mc classd", "mc-classd-bounded", "family", []),
    ("mc classd", "mc-classd-bounded", "levels", []),
    ("reconstruct local", "reconstruct-local-disk-dirac", "levels", []),
    ("tail", "tail-disk-dirac", "levels", []),
    ("mc maximal", "mc-maximal-bounded", "grid", None),
    ("reduite", "reduite-oracle", "grid", None),
    ("tail", "tail-interval-dirac", "rho.value", None),
    ("reconstruct nonlocal", "reconstruct-nonlocal-interval", "eta.r_one", None),
    ("reconstruct nonlocal", "reconstruct-nonlocal-interval", "eta.r_zero", None),
])
def test_missing_or_empty_run_field_named(tmp_path, capsys, command, preset, field, value):
    """A run field that is missing (a dotted field: one its section's kind
    needs), or an empty level or family list, exits with code 1 and names
    the field instead of failing deep in the run."""
    cfg = get_preset(preset)
    *parents, key = field.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    if value is None:
        del section[key]
    else:
        section[key] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(command.split() + ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert f"config field '{field}'" in capsys.readouterr().err


def test_solve_with_a_bad_rho_writes_nothing(tmp_path, capsys):
    """``potkit solve`` builds rho before it writes: a rho without its value
    exits 1, names the field and leaves --out empty."""
    cfg = get_preset("tail-interval-dirac")
    del cfg["rho"]["value"]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    assert "config field 'rho.value'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_mc_reducing_rejects_fractional_config(tmp_path, capsys):
    # the reducing walk is Brownian: a fractional solution must not get its numbers
    cfg = get_preset("reconstruct-nonlocal-interval")
    cfg.update({"k": 1.0, "n": 0.5, "start": [0.5], "samples": 100, "seed": 1})
    path = tmp_path / "frac.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["mc", "reducing", "--config", str(path), "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 1
    assert "fractional" in capsys.readouterr().err


def test_divergence_config_solves_on_its_grid(tmp_path, capsys):
    """Without a closed form every subcommand solves on the config grid."""
    cfg = {
        "name": "tiny-div",
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2},
        "operator": {"kind": "divergence", "coeff_preset": "smooth"},
        "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
        "grid": {"h": 2.0**-3},
        "levels": [0.125, 0.25],
        "seed": 3,
        "samples": 100,
    }
    path = tmp_path / "div.yaml"
    path.write_text(yaml.safe_dump(cfg))
    run = lambda cmd: main(cmd.split() + ["--config", str(path), "--out",
                                          str(tmp_path / "out"), "--quiet"])
    for cmd in ("solve", "tail", "reduite", "reconstruct local"):
        assert run(cmd) == 0, cmd
    assert run("mc maximal") == 1
    assert "divergence operator" in capsys.readouterr().err
    del cfg["grid"]
    path.write_text(yaml.safe_dump(cfg))
    assert run("solve") == 1
    assert "config field 'grid'" in capsys.readouterr().err


def test_fractional_rectangle_config_solves(tmp_path):
    """A fractional operator on the unit square has no closed form: the
    config solves on its grid."""
    cfg = {
        "name": "frac-square",
        "domain": {"kind": "rectangle", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "operator": {"kind": "fractional", "alpha": 1.2},
        "measure": {"atoms": [[[0.5, 0.5], 1.0]]},
        "grid": {"h": 2.0**-4},
    }
    path = tmp_path / "frac_square.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0


@pytest.mark.parametrize("command", ["solve", "tail"])
def test_grid_node_cap_applies_to_every_subcommand(tmp_path, capsys, command):
    # the h = 2^-7 grid of the preset has 67,081 nodes
    cfg = get_preset("tail-disk-dirac")
    cfg["grid"]["node_cap"] = 100
    path = tmp_path / "capped.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert "above the cap 100" in capsys.readouterr().err


def test_every_preset_solution_is_closed_form(monkeypatch):
    """No shipped preset needs a grid solve for u, even where the subcommand
    passes its grid operator along."""
    def no_assembly(*args, **kwargs):
        raise AssertionError("assemble called")

    monkeypatch.setattr(config_mod, "assemble", no_assembly)
    for name in sorted(PRESETS):
        cfg = validate_config(get_preset(name))
        dom, op, mu = build_problem(cfg)
        sol = build_solution(cfg, dom, op, mu)
        assert sol.closed, name


def test_cli_import_leaves_optimize_and_integrate_unloaded():
    # scipy.optimize and scipy.integrate are imported only inside the functions
    # that call them, and yaml only by load_config, so a fresh `import
    # potkit.cli` loads none of them; config validation needs no jsonschema
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, potkit.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', "
            "'jsonschema', 'yaml') if sys.modules.get(m)))")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_only_the_timed_scipy_subpackages():
    # the set-up time of every benchmark workload includes `import potkit`:
    # it loads scipy.sparse and scipy's own plumbing, and no other scipy
    # subpackage.  After `import potkit.cli`, and after one pass of each
    # benchmark workload (bench/workloads.py, loaded as the bench contract
    # test loads it), none of scipy.linalg, scipy.sparse.linalg and
    # scipy.special is loaded: no solve factors a matrix, and the one
    # special function a pass needs, the fractional ball's incomplete beta,
    # is potkit's own
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workloads = os.path.join(root, "bench", "workloads.py")
    code = "\n".join([
        "import importlib.util, sys",
        "import potkit",
        "print(' '.join(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))",
        "import potkit.cli",
        "heavy = ('scipy.linalg', 'scipy.sparse.linalg', 'scipy.special')",
        "print('cli', *[m for m in heavy if m in sys.modules])",
        f"spec = importlib.util.spec_from_file_location('bench_workloads', {workloads!r})",
        "module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(module)",
        "for name in ('interval-fractional', 'disk-dirac-cg', 'disk-mixed-psor', 'mc-exit'):",
        "    assert module.run_pass(name, module.setup(name)).ok, name",
        "    print(name, *[m for m in heavy if m in sys.modules])",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    first, *after = out.stdout.splitlines()
    allowed = {"sparse", "_lib", "__config__", "version", "_distributor_init", "_cyutility"}
    loaded = set(first.split())
    assert "sparse" in loaded and loaded <= allowed, sorted(loaded - allowed)
    assert after == ["cli", "interval-fractional", "disk-dirac-cg", "disk-mixed-psor", "mc-exit"]


@pytest.mark.parametrize("section,field", [("domain", "radiuss"), ("operator", "alhpa"),
                                           ("grid", "hh"), ("tolerances", "reduit")])
def test_misspelled_nested_field_rejected(tmp_path, capsys, tiny_dirac_cfg, section, field):
    with open(tiny_dirac_cfg, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg.setdefault(section, {})[field] = 1.0
    path = tmp_path / "typo.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["tail", "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config field '{section}'" in err and repr(field) in err


def test_presets_validate():
    for name in PRESETS:
        validate_config(get_preset(name))


def test_unknown_preset(capsys):
    rc = main(["tail", "--preset", "nope", "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown preset 'nope'; available: ")
    assert "tail-disk-dirac" in err


@pytest.mark.parametrize("section,value,message", [
    ("domain", {"kind": "interval", "a": 1.0, "b": 0.0}, "interval requires a < b"),
    ("operator", {"kind": "divergence", "lam": 2.0, "Lam": 1.0}, "need 0 < lam <= Lam"),
    ("eta", {"kind": "smoothstep", "r_one": 0.5, "r_zero": 0.2}, "needs r_one < r_zero"),
])
def test_invalid_constructor_values_exit_1(tmp_path, capsys, section, value, message):
    cfg = {"domain": {"kind": "interval", "a": 0.0, "b": 1.0},
           "operator": {"kind": "laplacian"},
           "measure": {"atoms": [[[0.5], 1.0]]},
           "grid": {"h": 0.125}}
    cfg[section] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    # only the reconstruction builds eta
    command = ["reconstruct", "local"] if section == "eta" else ["solve"]
    rc = main(command + ["--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{section}': ")
    assert message in err


@pytest.mark.parametrize("command,section,value,field", [
    (["reconstruct", "local"], "eta",
     {"kind": "smoothstep", "center": [0.3], "r_one": 0.25, "r_zero": 0.75}, "eta.center"),
    (["solve"], "measure", {"density": {"kind": "gaussian", "center": [0.0, 0.0, 0.0]}},
     "measure.density.center"),
], ids=["eta", "gaussian-density"])
def test_center_of_wrong_dimension_named(tmp_path, capsys, command, section, value, field):
    # numpy would broadcast a 1-vector about (0.3, 0.3) and fail on a 3-vector
    cfg = {"domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2},
           "operator": {"kind": "laplacian"},
           "measure": {"atoms": [[[0.0, 0.0], 1.0]]},
           "grid": {"h": 0.125}}
    cfg[section] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(command + ["--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ")
    assert "the domain is 2-d" in err


def test_constants_output(capsys):
    rc = main(["constants", "--alpha", "0.5", "--dim", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "frac_constant" in text
    assert "0.19947114020071638" in text


def test_verify_single_criterion(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["verify", "--criteria", "8", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "criterion  8" in text
    rep = json.loads(read(os.path.join(out, "verify_report.json")))
    assert rep["all_passed"]


@pytest.mark.parametrize("argv,message", [
    (["verify", "--criteria", "15"], "--criteria: '15' is not a criterion id"),
    (["verify", "--criteria", "3,15"], "--criteria: '15' is not a criterion id"),
    (["verify", "--criteria", "8,x"], "--criteria: 'x' is not a criterion id"),
    (["constants", "--alpha", "2"], "--alpha: "),
    (["constants", "--alpha", "0"], "--alpha: "),
    (["constants", "--alpha", "3"], "--alpha: "),
    (["constants", "--dim", "0"], "--dim: "),
], ids=["criteria-15", "criteria-3,15", "criteria-8,x", "alpha-2", "alpha-0", "alpha-3",
        "dim-0"])
def test_out_of_range_arguments_exit_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                       argv, message):
    from potkit import verify as verify_mod

    def no_run(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(verify_mod, "run_criteria", no_run)
    monkeypatch.setattr(cli_mod, "constants_table", no_run)
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] == "verify" else []
    assert main(argv + extra) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == "" and not out.exists()


def _canned_curve(values):
    """A TailCurve no grid computes: its values and verdict show up in a
    criterion's details only if the criterion reads them."""
    from potkit.envelope import TailCurve
    values = np.asarray(values, dtype=float)
    return TailCurve(levels=np.arange(1.0, values.size + 1.0), values=values,
                     resolvable=np.ones(values.size, dtype=bool),
                     sweeps=np.zeros(values.size, dtype=int), omega=np.zeros(values.size),
                     policy_steps=np.zeros(values.size, dtype=int),
                     limit_estimate=float(values[-1]), target=0.0, verdict="canned")


@pytest.mark.parametrize("cid,presets,values,passed,shown", [
    (2, ["tail-disk-density", "tail-interval-dirac"], [[0.0, 0.0]], False,
     "T=[0.0, 0.0] verdict=canned"),
    (3, ["tail-disk-dirac"], [[1.3 / (4 * np.pi)], [1.2 / (4 * np.pi)],
                              [1.05 / (4 * np.pi)]], True,
     "['30.000%', '20.000%', '5.000%']"),
    (4, ["tail-disk-mixed"], [[0.2, 0.15, 0.1]], True, "T=[0.2, 0.15, 0.1]"),
], ids=["criterion_02", "criterion_03", "criterion_04"])
def test_tail_criteria_judge_the_cli_tail_curves(monkeypatch, cid, presets, values,
                                                 passed, shown):
    """Criteria 2-4 take every number they judge from ``cli.tail_curves``
    on their presets, one curve per grid width."""
    from potkit.config import grid_widths
    from potkit.verify import ALL_CRITERIA
    seen = []

    def canned(cfg):
        seen.append(cfg["name"])
        return [(h, _canned_curve(v)) for h, v in zip(grid_widths(cfg), values)]

    monkeypatch.setattr(cli_mod, "tail_curves", canned)
    result = ALL_CRITERIA[cid]()
    assert seen == presets
    assert result.passed is passed and shown in result.details


def test_maximal_criterion_judges_the_cli_maximal_check(monkeypatch):
    """Criterion 13 takes its estimate and bound from ``cli.maximal_check``
    on both presets."""
    from potkit.stochastic import McEstimate
    from potkit.verify import ALL_CRITERIA
    seen = []

    def canned(cfg):
        seen.append(cfg["name"])
        extra = {"passed": len(seen) == 1, "bound": 0.125, "margin": -0.375}
        return McEstimate(value=0.5, stderr=0.0, n_samples=2, extra=extra), 1.0 / 256

    monkeypatch.setattr(cli_mod, "maximal_check", canned)
    result = ALL_CRITERIA[13]()
    assert seen == ["mc-maximal-bounded", "mc-maximal-interval-dirac"]
    assert not result.passed
    assert result.details.count("E sup^0.5 = 0.5000 vs bound 0.1250 "
                                "(margin -0.3750)") == 2


def _canned_report(levels, values, prefactor):
    """A ReconstructionReport no solution computes, each level read on two
    lattices that agree."""
    from potkit.reconstruct import ReconstructionReport
    values = np.asarray(values, dtype=float)
    return ReconstructionReport(
        levels=np.asarray(levels, dtype=float), values=values, target=1.0,
        rel_errors=values - 1.0, fitted_prefactor=prefactor,
        prefactor_flagged=abs(prefactor - 1.0) > 0.1, kind="canned",
        traces=[[v, v] for v in values], resolvable=np.ones(values.size, dtype=bool),
        widths=[], unknowns=[])


def _canned_diagnostic(levels, estimates, verdict, limit, limit_stderr):
    """A UIDiagnostic no walk computes."""
    from potkit.stochastic import UIDiagnostic
    estimates = np.asarray(estimates, dtype=float)
    return UIDiagnostic(levels=np.asarray(levels, dtype=float), estimates=estimates,
                        stderrs=np.zeros(estimates.size), family=np.ones(1),
                        table=estimates[:, None], verdict=verdict, limit_estimate=limit,
                        limit_stderr=limit_stderr, limit_basis="canned", target=0.0,
                        draws=0)


def _canned_results():
    """{preset: a result no computation gives} for the presets of criteria 5,
    6, 11 and 12, in their ``cli`` functions' return shapes."""
    from types import SimpleNamespace

    from potkit.stochastic import McEstimate
    return {
        "reconstruct-local-disk-dirac": _canned_report([0.125, 0.25, 0.5],
                                                       [0.5, 1.004, 2.0], 1.0),
        "reconstruct-nonlocal-interval": _canned_report([1.0, 2.0, 4.0],
                                                        [0.5, 0.8, 0.9], 1.2),
        "mc-reducing-disk": McEstimate(value=0.083, stderr=0.001, n_samples=2, extra={}),
        "mc-classd-bounded": (_canned_diagnostic([0.1, 0.3, 0.5], [0.01, 0.0, 0.0],
                                                 "class-D", 0.0, 0.0),
                              SimpleNamespace(max_interior=lambda: 0.25)),
        "mc-classd-dirac": (_canned_diagnostic([0.125], [0.1], "canned", 0.08, 0.001),
                            None),
    }


@pytest.mark.parametrize("cid,name,presets,shown,passed", [
    (5, "reconstruction", ["reconstruct-local-disk-dirac"],
     "value 1.004000 (target 1)", True),
    (6, "reconstruction", ["reconstruct-nonlocal-interval"],
     "values [0.5, 0.8, 0.9], top level 0.9000, fitted prefactor 1.2000 (flagged=True)",
     False),
    (11, "reducing", ["mc-reducing-disk"],
     "estimate 0.08300 +- 0.00100, exact 0.08274 (0.26 sigma)", True),
    (12, "classd", ["mc-classd-bounded", "mc-classd-dirac"],
     "bounded: verdict=class-D, exact zeros above sup=True; dirac: verdict=canned, "
     "plateau 0.08000 +- 0.00100 vs 0.07958 (0.42 sigma)", False),
], ids=["criterion_05", "criterion_06", "criterion_11", "criterion_12"])
def test_criteria_judge_the_cli_results(monkeypatch, cid, name, presets, shown, passed):
    """Criteria 5, 6, 11 and 12 take every number they judge from
    ``cli.reconstruction``, ``cli.reducing`` and ``cli.classd`` on their
    presets, in order."""
    from potkit.verify import ALL_CRITERIA
    results, seen = _canned_results(), []

    def canned(cfg):
        seen.append(cfg["name"])
        return results[cfg["name"]]

    monkeypatch.setattr(cli_mod, name, canned)
    result = ALL_CRITERIA[cid]()
    assert seen == presets
    assert result.passed is passed and shown in result.details


def test_tail_curves_are_the_tail_subcommand_values(tmp_path):
    """``cli.tail_curves`` and ``cli.reconstruction`` give ``potkit tail``'s
    and ``potkit reconstruct nonlocal``'s JSON values bit for bit."""
    out = str(tmp_path / "out")
    assert main(["tail", "--preset", "tail-disk-mixed", "--out", out, "--quiet"]) == 0
    rep = json.loads(read(os.path.join(out, "tail_disk_mixed.json")))
    curves = cli_mod.tail_curves(get_preset("tail-disk-mixed"))
    assert len(curves) == len(rep["results"]) == 1
    for (h, tc), (key, block) in zip(curves, rep["results"].items()):
        assert h == float(key)
        assert tc.values.tolist() == block["values"]
    preset = "reconstruct-nonlocal-interval"
    assert main(["reconstruct", "nonlocal", "--preset", preset, "--out", out,
                 "--quiet"]) == 0
    rep = json.loads(read(os.path.join(out, "reconstruct_nonlocal_interval.json")))
    assert cli_mod.reconstruction(get_preset(preset)).values.tolist() == \
        rep["results"]["values"]


@pytest.mark.parametrize("command,preset,label", [
    ("solve", "kernel-interval-order", "solve:kernel_interval_order"),
    ("reduite", "reduite-oracle", "reduite:reduite_oracle"),
    ("tail", "tail-interval-dirac", "tail:tail_interval_dirac"),
    ("reconstruct local", "reconstruct-local-disk-dirac",
     "reconstruct-local:reconstruct_local_disk_dirac"),
    ("mc reducing", "mc-reducing-disk", "mc-reducing:mc_reducing_disk"),
], ids=["solve", "reduite", "tail", "reconstruct-local", "mc-reducing"])
def test_each_report_command_logs_its_own_timing(tmp_path, command, preset, label):
    """Every report command appends exactly one timings.log line, labelled
    by its subcommand and output prefix."""
    out = tmp_path / "out"
    assert main(command.split() + ["--preset", preset, "--out", str(out), "--quiet"]) == 0
    lines = (out / "timings.log").read_text().splitlines()
    assert len(lines) == 1
    head, seconds = lines[0].rsplit(": ", 1)
    assert head == label and seconds.endswith(" s") and float(seconds[:-2]) >= 0.0


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("POTKIT_OUT", str(tmp_path / "envout"))
    rc = main(["solve", "--preset", "kernel-interval-order", "--quiet"])
    assert rc == 0
    assert os.path.exists(str(tmp_path / "envout" / "kernel_interval_order.csv"))


@pytest.mark.parametrize("domain, density", [
    ({"kind": "interval", "a": -1.0, "b": 1.0}, {"center": [0.0]}),
    ({"kind": "rectangle", "bounds": [[0.0, 1.0], [0.0, 1.0]]}, {"center": [0.5, 0.5]}),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "dim": 2},
     {"center": [0.3, -0.2]}),
], ids=["interval", "square", "off-centre-disk"])
def test_solve_gaussian_config_reports_total_variation(tmp_path, domain, density):
    cfg = {"name": "gauss", "domain": domain, "operator": {"kind": "laplacian"},
           "measure": {"density": dict(kind="gaussian", value=2.0, sigma=0.3, **density)},
           "grid": {"h": 2.0**-4}, "rho": {"kind": "uniform"},
           "output": {"prefix": "gauss"}}
    path = tmp_path / "gauss.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", str(path), "--out", out, "--quiet"]) == 0
    dom, _, mu = build_problem(validate_config(cfg))
    rep = json.loads(read(os.path.join(out, "gauss.json")))
    assert rep["results"]["total_variation"] == total_variation(mu, dom) > 0.0


def test_solve_failing_summary_writes_no_csv(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise PotkitError("no total variation")

    monkeypatch.setattr(cli_mod, "total_variation", fail)
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "kernel-interval-order", "--out", str(out), "--quiet"])
    assert rc == 1
    assert not list(out.glob("*.csv"))
