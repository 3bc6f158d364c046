import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import nmrqc
from nmrqc.quantum import DensityMatrix
from nmrqc.spinsys import NucleusSpec, SpinSystemConfig, preset

# Tier-1 runs the same examples every time and leaves no example database behind.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

ROOT = Path(__file__).resolve().parents[1]
# tools/abtime.py, loaded at import as test ids read its CLI_REQUESTS: the README requests' table
_spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
abtime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtime)


def child_env() -> dict:
    """This environment with the tested package's directory first on PYTHONPATH."""
    src = str(Path(nmrqc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture(scope="session")
def gemini():
    return preset("gemini")


@pytest.fixture(scope="session")
def triangulum():
    return preset("triangulum")


def make_weak_config(offsets_hz, j_hz, t1=4.0, t2=0.2, polarization=1e-5, labels=None):
    n = len(offsets_hz)
    labels = labels or [f"S{i}" for i in range(n)]
    nuclei = tuple(
        NucleusSpec(label=labels[i], offset_hz=offsets_hz[i], t1_s=t1, t2_s=t2,
                    polarization=polarization)
        for i in range(n)
    )
    return SpinSystemConfig(name="test", nuclei=nuclei, j_hz=np.asarray(j_hz, dtype=float),
                            coupling_model="weak")


def random_density_matrix(rng, n):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)
