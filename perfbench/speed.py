"""Machine-speed probes: small fixed work, independent of dswlab, timed between items.

The benchmark's host is a shared virtual machine whose processor speed moves
by up to 1.6x over minutes with the neighbours' load (CPU time moves with
wall time, so it is not scheduling). A whole run can fall in a slow spell, so
no statistic of the raw times alone is steady from run to run. Each timed
item is therefore bracketed by probes of the same kind of work, and its time
is scaled by ``REFERENCE_S[kind] / probe time``: the item's time at the speed
at which the probe takes its reference time. dswlab code never runs inside a
probe, so a change to the program moves the scaled times as much as the raw
ones; the raw times stay in the details line.

Kinds: ``interpreter`` (single-threaded bytecode and small numpy calls),
``blas`` (dense eigensolves on the BLAS threads) and ``process`` (a fresh
interpreter importing numpy). A probe of another kind than the item's work
tracks it poorly: a busy second core slows a two-thread eigensolve but not
a single-threaded item, and subprocess start-up follows neither.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Probe seconds at the reference speed: the fast end of what the probes took
# on a 2-vCPU Intel Xeon VM (numpy 2.4.6, OpenBLAS 0.3.31 at 2 threads).
REFERENCE_S = {"interpreter": 0.0100, "blas": 0.0180, "process": 0.110}

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal(128) + 0j
_WIDE = _rng.standard_normal(4096)
_DENSE = _rng.standard_normal((256, 256))
_DENSE = _DENSE + _DENSE.T


def _interpreter() -> None:
    """Single-threaded: bytecode, small-array numpy calls and FFTs, the mix of
    the Python-bound workloads (the Hill ODE, the stepper)."""
    total = 0
    for i in range(60_000):
        total += i * i
    x = _SMALL
    for _ in range(300):
        x = np.fft.ifft(np.fft.fft(x) * 0.5) * 2.0
    for _ in range(60):
        np.fft.irfft(np.fft.rfft(_WIDE))


def _blas() -> None:
    """Dense symmetric eigensolves on the BLAS threads, as in spectra."""
    for _ in range(3):
        np.linalg.eigh(_DENSE)


def _process() -> None:
    """A fresh interpreter that imports numpy and exits: process start, file
    reads and unmarshalling, the mix of the CLI's calls and of set-up."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


_PROBES = {"interpreter": _interpreter, "blas": _blas, "process": _process}


def probe(kind: str) -> float:
    """Seconds one run of the ``kind`` probe takes now."""
    work = _PROBES[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scale(seconds: float, probe_s: float, kind: str) -> float:
    """``seconds`` measured next to a probe of ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S[kind] / probe_s
