"""Digest every CLI output of every shipped preset, for byte-identity checks.

Runs each preset through ``solve``, ``tail``, ``reduite``,
``reconstruct local|nonlocal`` and ``mc reducing|classd|maximal``, one fresh
``python -m potkit.cli`` process per run, each into its own directory under a
temporary one, with potkit imported from the ``src/`` next to this script.
Prints a header line with the BLAS thread count, then one line per output
CSV/JSON file:

    <preset> <command> exit=<code> <file> <sha256>

where <command> is the subcommand with its words joined by ``-``.  A run
that writes no file prints one line with ``-`` for file and digest; a run
that dies with a Python traceback has ``crashed`` after its exit code.
The ``timings.log`` sidecar holds wall times and is not digested.  The
script prints every line and then exits 1 if any run crashed, else 0.

Usage, on two checkouts at the same thread count:

    OPENBLAS_NUM_THREADS=2 python tools/preset_digests.py > before.txt
    ... (other checkout) ...               > after.txt
    diff before.txt after.txt

Without OPENBLAS_NUM_THREADS set, BLAS and OpenMP pools are capped at the
CPUs this process may use.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
from potkit.presets import PRESETS  # noqa: E402

COMMANDS = ("solve", "tail", "reduite", "reconstruct local", "reconstruct nonlocal",
            "mc reducing", "mc classd", "mc maximal")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    threads = env.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("POTKIT_OUT", None)
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    env = _env()
    print(f"# preset_digests blas_threads={env['OPENBLAS_NUM_THREADS']}", flush=True)
    crashed = 0
    with tempfile.TemporaryDirectory(prefix="preset_digests_") as tmp:
        for preset in PRESETS:
            for command in COMMANDS:
                name = command.replace(" ", "-")
                out = Path(tmp) / preset / name
                run = subprocess.run(
                    [sys.executable, "-m", "potkit.cli", *command.split(),
                     "--preset", preset, "--out", str(out), "--quiet"],
                    cwd=tmp, env=env, capture_output=True, text=True)
                status = f"exit={run.returncode}"
                if "Traceback" in run.stderr:
                    status += " crashed"
                    crashed += 1
                files = sorted(p for p in out.glob("*") if p.suffix in (".csv", ".json"))
                if not files:
                    print(f"{preset} {name} {status} - -", flush=True)
                for path in files:
                    print(f"{preset} {name} {status} {path.name} {_sha256(path)}",
                          flush=True)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
