"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import _compat
from repro.platform.cluster import Cluster
from repro.platform.core import Core
from repro.platform.odroid_xu3 import A15_VF_TABLE, build_a15_cluster
from repro.platform.vf_table import OperatingPoint, VFTable
from repro.rtm.governor import PlatformInfo
from repro.workload.application import Application, PerformanceRequirement
from repro.workload.task import Frame
from repro.workload.video import h264_football_application, mpeg4_application
from repro.workload.fft import fft_application


@pytest.fixture(autouse=True)
def _numba_less_negotiation(monkeypatch):
    """Pin engine negotiation to the numba-less default for every test.

    The tier-1 suite asserts *which* backend auto-negotiation selects
    (tablepath/thermalpath/...), and those expectations must not flip when
    the optional ``jit`` extra happens to be installed (the CI ``jit`` job
    runs this same suite with numba present).  Tests that exercise the
    compiled backend — :mod:`tests.test_jitpath` — opt back in by
    monkeypatching ``HAVE_NUMBA = True`` after this fixture, which also
    makes them runnable on numba-less machines (interpreted kernels are
    bit-identical by construction).
    """
    monkeypatch.setattr(_compat, "HAVE_NUMBA", False)


@pytest.fixture
def open_files_under():
    """Return a probe listing the paths under a directory this process holds open.

    Reads ``/proc/self/fd``; tests using it skip where that does not exist.
    """
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")

    def probe(directory) -> list:
        opened = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue  # the descriptor listdir itself used, now closed
            if target.startswith(str(directory)):
                opened.append(target)
        return opened

    return probe


@pytest.fixture
def retained_store_writers(monkeypatch):
    """Keep every writer ``StoreWriter.open_append`` returns alive; return them.

    Garbage collection closes a dropped writer's file, which would hide a
    missing ``close()`` from an open-descriptor check.
    """
    from repro.campaign import store as result_store

    writers = []
    real_open_append = result_store.StoreWriter.open_append.__func__

    def open_append(cls, path):
        writer = real_open_append(cls, path)
        writers.append(writer)
        return writer

    monkeypatch.setattr(
        result_store.StoreWriter, "open_append", classmethod(open_append)
    )
    return writers


@pytest.fixture
def small_vf_table() -> VFTable:
    """A tiny 4-point table used by unit tests that don't need the full 19 OPPs."""
    return VFTable(
        [
            OperatingPoint(500e6, 0.90),
            OperatingPoint(1000e6, 1.00),
            OperatingPoint(1500e6, 1.10),
            OperatingPoint(2000e6, 1.30),
        ]
    )


@pytest.fixture
def a15_table() -> VFTable:
    """The full ODROID-XU3 A15 operating-point table."""
    return A15_VF_TABLE


@pytest.fixture
def a15_cluster() -> Cluster:
    """A freshly built 4-core A15 cluster model."""
    return build_a15_cluster()


@pytest.fixture
def small_cluster(small_vf_table) -> Cluster:
    """A 2-core cluster on the tiny table, for fast deterministic unit tests."""
    return Cluster(
        name="mini",
        cores=[Core(core_id=0), Core(core_id=1)],
        vf_table=small_vf_table,
    )


@pytest.fixture
def platform_info(a15_table) -> PlatformInfo:
    """PlatformInfo for a 4-core cluster on the A15 table."""
    return PlatformInfo(num_cores=4, vf_table=a15_table)


@pytest.fixture
def requirement_25fps() -> PerformanceRequirement:
    """A 25 fps performance requirement (Tref = 40 ms)."""
    return PerformanceRequirement(frames_per_second=25.0)


def make_constant_application(
    num_frames: int = 50,
    cycles_per_thread: float = 2.0e7,
    num_threads: int = 4,
    fps: float = 25.0,
    name: str = "constant",
) -> Application:
    """An application whose every frame has identical per-thread demand."""
    requirement = PerformanceRequirement(frames_per_second=fps)
    frames = [
        Frame(
            index=i,
            thread_cycles=tuple([cycles_per_thread] * num_threads),
            deadline_s=requirement.tref_s,
            kind="const",
        )
        for i in range(num_frames)
    ]
    return Application(name=name, frames=frames, requirement=requirement)


@pytest.fixture
def constant_application() -> Application:
    """A 50-frame constant-demand application at 25 fps."""
    return make_constant_application()


@pytest.fixture
def short_video_application() -> Application:
    """A short H.264 football workload for integration tests."""
    return h264_football_application(num_frames=200, seed=3)


@pytest.fixture
def short_mpeg4_application() -> Application:
    """A short MPEG-4 workload for integration tests."""
    return mpeg4_application(num_frames=150, seed=5)


@pytest.fixture
def short_fft_application() -> Application:
    """A short FFT workload for integration tests."""
    return fft_application(num_frames=150, seed=5)
