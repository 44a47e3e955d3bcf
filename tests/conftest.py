"""Shared fixtures for the test suite.

Fixtures are intentionally small (tens to a few hundred sinks) so the whole
suite runs in seconds; the full-size Table II designs are exercised by the
benchmark harness instead.
"""

from __future__ import annotations

import faulthandler
import os
import signal

import pytest
from hypothesis import settings

#: ``--hypothesis-profile=stateful`` runs the edit-contract state machine
#: (tests/test_ir_stateful.py) on ten times hypothesis's default 100
#: examples; the CI ``stateful`` job selects it.
settings.register_profile("stateful", max_examples=1000)

# Debugging hook for runs that hang (a stuck worker, an interpreter-exit
# deadlock): `REPRO_HANG_DEBUG=1 pytest ... &` then `kill -USR1 <pid>` dumps
# every thread's stack without killing the process.
if os.environ.get("REPRO_HANG_DEBUG") and hasattr(signal, "SIGUSR1"):
    # The real stderr fd, not pytest's capture wrapper — a dump requested
    # after the test session (e.g. an interpreter-exit deadlock) must land
    # on the terminal, not in a torn-down capture buffer.
    import sys

    faulthandler.register(signal.SIGUSR1, file=sys.__stderr__, all_threads=True)

from repro.designs import PlacementGenerator, PlacementSpec, random_sink_cloud
from repro.flow import CtsConfig, DoubleSideCTS, SingleSideCTS
from repro.geometry import Point, Rect
from repro.netlist import ClockNet, ClockSink, ClockSource
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech import asap7_backside
from repro.tech.pdk import asap7_frontside


@pytest.fixture(scope="session")
def pdk():
    """The ASAP7 + back-side technology of the paper."""
    return asap7_backside()


@pytest.fixture(scope="session")
def front_pdk():
    """The same technology without back-side resources."""
    return asap7_frontside()


def make_grid_clock_net(
    columns: int = 8,
    rows: int = 8,
    pitch: float = 12.0,
    capacitance: float = 0.8,
    name: str = "clk",
) -> ClockNet:
    """A deterministic grid of sinks with the source at the bottom edge."""
    sinks = [
        ClockSink(
            name=f"ff_{x}_{y}",
            location=Point(5.0 + x * pitch, 5.0 + y * pitch),
            capacitance=capacitance,
        )
        for x in range(columns)
        for y in range(rows)
    ]
    source = ClockSource(name="clk_root", location=Point(columns * pitch / 2.0, 0.0))
    return ClockNet(name=name, source=source, sinks=sinks)


def make_random_clock_net(
    count: int = 120,
    extent: float = 90.0,
    seed: int = 3,
    capacitance: float = 0.8,
) -> ClockNet:
    """A seeded random sink cloud (non-grid, unbalanced)."""
    return random_sink_cloud(count, extent=extent, seed=seed, capacitance=capacitance)


@pytest.fixture(scope="session")
def grid_clock_net() -> ClockNet:
    return make_grid_clock_net()


@pytest.fixture(scope="session")
def random_clock_net() -> ClockNet:
    return make_random_clock_net()


@pytest.fixture(scope="session")
def small_spec() -> PlacementSpec:
    """A design small enough for fast tests but large enough (die of roughly
    100 um) that back-side wires give a measurable latency benefit."""
    return PlacementSpec(
        name="unit_test_design",
        cell_count=24000,
        ff_count=800,
        utilization=0.5,
        macro_count=1,
        seed=42,
    )


@pytest.fixture(scope="session")
def small_design(small_spec):
    return PlacementGenerator(include_combinational=False).generate(small_spec)


@pytest.fixture(scope="session")
def small_config() -> CtsConfig:
    """A CTS configuration scaled to the small unit-test designs."""
    return CtsConfig(high_cluster_size=400, low_cluster_size=30, seed=7)


@pytest.fixture()
def routed_tree(pdk, random_clock_net, small_config):
    """A freshly routed (unbuffered) clock tree over the random sink cloud."""
    return HierarchicalClockRouter(pdk, config=small_config).route(random_clock_net)


@pytest.fixture(scope="session")
def ours_result(pdk, small_design, small_config):
    """One full double-side CTS run shared by read-only tests."""
    return DoubleSideCTS(pdk, small_config).run(small_design)


@pytest.fixture(scope="session")
def single_side_result(pdk, small_design, small_config):
    """One full single-side CTS run shared by read-only tests."""
    return SingleSideCTS(pdk, small_config).run(small_design)


@pytest.fixture(scope="session")
def unit_die() -> Rect:
    return Rect(0.0, 0.0, 100.0, 100.0)
