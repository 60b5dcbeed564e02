"""Shared fixtures for the test suite.

The expensive full-order solves (Burgers n=201 with 400 implicit steps, the
shallow water run) are computed once per session and shared between the unit
modules and the acceptance battery.  Everything here is deterministic: the
models have fixed initial conditions and the solvers contain no randomness,
so sharing results across tests cannot couple them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from smdeim_rom import io as artifact_io
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe
from smdeim_rom.pod import pod_basis

# Property tests draw a fixed sequence of examples, so every run checks the
# same cases, and no example database is kept between runs.
settings.register_profile(
    "deterministic", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("deterministic")


class FullRun:
    """A full-order model together with its solved trajectory and snapshots."""

    def __init__(self, model, n_t=None):
        self.model = model
        self.n_t = n_t if n_t is not None else model.default_n_t
        self.trajectory, self.stats, self.snaps = full_solve(model, self.n_t)


@pytest.fixture(scope="session")
def burgers201():
    """Default Burgers setup: n=201, mu=0.01, 400 steps to t=2."""
    return FullRun(build_burgers())


@pytest.fixture(scope="session")
def basis201(burgers201):
    """k=25 state basis for the default Burgers run."""
    return pod_basis(burgers201.snaps[0].states, gamma=1.0, k_max=25)


@pytest.fixture(scope="session")
def burgers51():
    """Guard-scale Burgers setup: n=51, 100 steps."""
    return FullRun(build_burgers(n=51, n_t=101))


@pytest.fixture(scope="session")
def swe_run():
    """Default shallow water setup: 21x15 points, 90 ADI steps of 240 s."""
    return FullRun(build_swe())


@pytest.fixture(scope="session")
def swe_basis(swe_run):
    """k=20 basis over the states recorded by both ADI stages."""
    states = np.hstack([s.states for s in swe_run.snaps])
    return pod_basis(states, gamma=1.0, k_max=20)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


class FileReads:
    """Bytes read through `read` and `readinto` from each file that
    smdeim_rom.io opens, by file name."""

    def __init__(self, monkeypatch):
        self.bytes = {}
        opener = open

        def counted(path, *args, **kwargs):
            return _CountedFile(opener(path, *args, **kwargs), self.bytes,
                                Path(path).name)

        monkeypatch.setattr(artifact_io, "open", counted, raising=False)

    @property
    def total(self):
        return sum(self.bytes.values())

    def clear(self):
        self.bytes.clear()


class _CountedFile:
    def __init__(self, f, tally, name):
        self.f, self.tally, self.name = f, tally, name

    def _count(self, nbytes):
        self.tally[self.name] = self.tally.get(self.name, 0) + nbytes

    def read(self, *args):
        data = self.f.read(*args)
        self._count(len(data))
        return data

    def readinto(self, buf):
        got = self.f.readinto(buf)
        self._count(got)
        return got

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.fixture()
def file_reads(monkeypatch):
    """A FileReads counting from the start of the test."""
    return FileReads(monkeypatch)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance battery's PASS/FAIL lines after the test table.

    The battery prints its lines as the tests run, but pytest's default
    file-descriptor capture swallows them for passing tests; replaying them
    here keeps one visible line per criterion in every run log.
    """
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
