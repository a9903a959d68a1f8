"""Shared fixtures for the test-suite."""

from __future__ import annotations

import random

import pytest

from repro.environment import (
    RandomChurnEnvironment,
    StaticEnvironment,
    complete_graph,
    line_graph,
)
from repro.service import ServiceClient


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests that need one."""
    return random.Random(12345)


@pytest.fixture
def static_complete_env():
    """A benign environment over a 6-agent complete graph."""
    return StaticEnvironment(complete_graph(6))


@pytest.fixture
def churn_complete_env():
    """A lossy environment over a 6-agent complete graph."""
    return RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.4)


@pytest.fixture
def static_line_env():
    """A benign environment over a 6-agent line."""
    return StaticEnvironment(line_graph(6))


@pytest.fixture
def connect():
    """``ServiceClient`` factory; the fixture closes every client it built."""
    clients = []

    def factory(url: str, **kwargs) -> ServiceClient:
        client = ServiceClient(url, **kwargs)
        clients.append(client)
        return client

    yield factory
    for client in clients:
        client.close()
