"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import os

import pytest

from repro.cn.cluster import Cluster
from repro.cn.config import ClusterConfig
from repro.cn.errors import ConfigError
from repro.cn.registry import TaskRegistry
from repro.cn.task import Task


def sweep_options() -> dict:
    """The Cluster options the CI sweeps select through the environment:
    ``CN_TRANSPORT=proc``, ``CN_SCHEDULER=bid``, ``CN_VERIFY_LOCKING=1``.
    This function is their only reader; ``src/repro`` reads no environment."""
    options: dict = {}
    transport = os.environ.get("CN_TRANSPORT", "").strip()
    if transport:
        options["transport"] = transport
    scheduler = os.environ.get("CN_SCHEDULER", "").strip()
    if scheduler:
        options["scheduler"] = scheduler
    if os.environ.get("CN_VERIFY_LOCKING", "") not in ("", "0"):
        options["verify_locking"] = True
    return options


def swept(init):
    """Wrap ``Cluster.__init__`` so a sweep re-runs the suite unedited: a
    sweep value applies where the caller passed none, and a cluster whose
    own options rule it out (chaos on the proc transport, say) is built
    without it instead of refusing to construct.  ``ClusterConfig``
    builds nothing, so asking it costs no constructor run."""

    @functools.wraps(init)
    def __init__(self, nodes=4, **kwargs):
        extra = {k: v for k, v in sweep_options().items() if k not in kwargs}
        if extra:
            try:
                ClusterConfig(nodes, **kwargs, **extra)
            except ConfigError:
                extra = {}
        init(self, nodes, **kwargs, **extra)

    return __init__


if not hasattr(Cluster.__init__, "__wrapped__"):
    # at import, so clusters built inside src (app drivers, the portal,
    # the simulator) and by module-scoped fixtures are swept too
    Cluster.__init__ = swept(Cluster.__init__)


class Echo(Task):
    """Returns its params; simplest possible task."""

    def __init__(self, *params):
        self.params = params

    def run(self, ctx):
        return tuple(self.params)


class Sleepy(Task):
    """Blocks on its queue until poked or cancelled."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        message = ctx.recv_user(timeout=30.0)
        return message.payload


class Boom(Task):
    """Always raises."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        raise RuntimeError("boom")


def basic_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("echo.jar", "test.Echo", Echo)
    registry.register_class("sleepy.jar", "test.Sleepy", Sleepy)
    registry.register_class("boom.jar", "test.Boom", Boom)
    return registry


@pytest.fixture
def registry() -> TaskRegistry:
    return basic_registry()


@pytest.fixture
def cluster(registry):
    with Cluster(4, registry=registry) as c:
        yield c


@pytest.fixture
def big_cluster(registry):
    with Cluster(8, registry=registry, memory_per_node=16000) as c:
        yield c
