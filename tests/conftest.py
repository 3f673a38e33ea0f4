"""Shared fixtures for the test suite.

The expensive artifacts (synthesized datasets, full experiment runs)
are session-scoped so the suite stays fast; tests must treat them as
read-only.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.config import SimulationConfig
from repro.lint.runner import default_lint_root, lint_paths
from repro.net.server import CentralServer
from repro.trace.synthesizer import TraceConfig, TraceSynthesizer


TINY_TRACE = TraceConfig(
    num_users=150,
    num_channels=30,
    num_videos=900,
    num_categories=6,
    seed=99,
)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but structurally complete dataset (read-only)."""
    return TraceSynthesizer(TINY_TRACE).synthesize()


@pytest.fixture(scope="session")
def default_dataset():
    """The default-config dataset used by the analysis tests (read-only)."""
    return TraceSynthesizer(TraceConfig(seed=1234)).synthesize()


@pytest.fixture(scope="session")
def source_tree_lint_report():
    """The one full-tree lint analysis of ``src/repro`` (read-only)."""
    return lint_paths([default_lint_root()])


@pytest.fixture()
def rng():
    return random.Random(42)


@pytest.fixture()
def server(tiny_dataset):
    """A fresh central server over the tiny dataset."""
    return CentralServer(tiny_dataset, capacity_bps=50e6, rng=random.Random(7))


@pytest.fixture()
def smoke_config():
    return SimulationConfig.smoke_scale(seed=77)

