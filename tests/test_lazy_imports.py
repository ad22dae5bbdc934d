"""scipy is imported only inside the calls that use it.

Every check runs in a fresh interpreter, since the test process itself has
long since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import dswlab

SCRIPT = r"""
import importlib, os, pkgutil, sys, tempfile

import dswlab


def scipy_modules():
    # subpackage names only, to keep a failure message short
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m == "scipy" or m.startswith("scipy.")})


for info in pkgutil.iter_modules(dswlab.__path__):
    importlib.import_module("dswlab." + info.name)
assert not scipy_modules(), ("import", scipy_modules())

from dswlab.index_engine import build_varphi, linv_apply
from dswlab.waves import params_from_kappa, profile_grid

p = params_from_kappa(2.0, 0.3)
linv_apply(p, build_varphi(p), profile_grid(p, 256)[0])
assert not scipy_modules(), ("build_varphi + linv_apply", scipy_modules())

from dswlab.cli import main

with tempfile.TemporaryDirectory() as tmp:
    out = lambda name: os.path.join(tmp, name)
    runs = [
        ["wave", "--L", "2", "--kappa", "0.3", "--out", out("wave.csv")],
        ["theta-table", "--pairs", "2:0.3", "--out", out("theta.csv")],
        ["dmatrix-sweep", "--L", "1", "--kappas", "0.3", "--out", out("d.csv")],
        ["spectrum", "--L", "2", "--kappa", "0.3", "--N", "128", "--out", out("s.csv")],
        ["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "64", "--T", "0.005",
         "--dt", "5e-5", "--out-prefix", out("sim")],
        # from N = 256 the stepper's transforms are numpy.fft's, not scipy.fft's
        ["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "256", "--T", "0.005",
         "--dt", "5e-5", "--out-prefix", out("sim256")],
        ["normalform-check", "--trials", "2", "--out", out("nf.csv")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        assert not scipy_modules(), (argv[0], scipy_modules())

    # the check can see a load: inverting a speed does need scipy
    assert main(["wave", "--L", "2", "--c", "10", "--out", out("wave_c.csv")]) == 0
    assert "scipy.optimize" in scipy_modules()
print("ok")
"""


def test_no_scipy_until_a_call_needs_it():
    src = str(Path(dswlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
