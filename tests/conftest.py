"""Shared fixtures and helpers for the cassikit test suite."""

import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import cassikit
from cassikit import priors
from cassikit.cassi import SensingOperator, random_binary_mask

# CLI tests run `python -m cassikit` in child processes, some with a changed
# working directory. Put the directory holding the package these tests import
# first on the inherited PYTHONPATH, as an absolute path, so every child runs
# the same code whatever its cwd (a relative PYTHONPATH=src would not resolve
# there, and an installed copy in site-packages would otherwise shadow it).
_PACKAGE_ROOT = str(Path(cassikit.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_PACKAGE_ROOT, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])

# Property tests draw the same examples on every run and keep no example
# database; each test keeps its own max_examples.
settings.register_profile("cassikit", derandomize=True, database=None, deadline=None)
settings.load_profile("cassikit")


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from local source files
    # under its home directory (./.hypothesis by default), database or not,
    # while collecting; give it a temporary home that the run removes.
    home = tempfile.mkdtemp(prefix="cassikit-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture
def tiny_operator() -> SensingOperator:
    """4x5 scene, 3 bands, step 2: small enough for dense oracles."""
    return SensingOperator.from_mask(random_binary_mask(4, 5, 3), 3, 2)


@pytest.fixture
def square_operator() -> SensingOperator:
    """16x16 scene, 8 bands, step 2: the adjointness workhorse."""
    return SensingOperator.from_mask(random_binary_mask(16, 16, 0), 8, 2)


@pytest.fixture
def failing_tv_worker(monkeypatch):
    """Two TV workers on any plane, and `_div_flat` runs out of memory on
    the bands of the worker that is not the calling thread.  It fails late,
    after worker 0 is done, so a caller that did not wait would return."""
    div = priors._div_flat
    caller = threading.current_thread()

    def failing(*args):
        if threading.current_thread() is not caller:
            time.sleep(0.05)
            raise MemoryError("Unable to allocate 1.00 TiB")
        return div(*args)

    monkeypatch.setattr(priors, "_div_flat", failing)
    monkeypatch.setattr(priors, "_cores", lambda: 2)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
