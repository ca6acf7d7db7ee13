"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cn.cluster import Cluster
from repro.cn.registry import TaskRegistry
from repro.cn.task import Task
from repro.core.transform.cnx2code import GeneratedClient, cnx_to_python


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


def run_client(doc, cluster, runtime_args=None, timeout=30.0):
    """Run the CNX document *doc* the one way the product does: through the
    client program Fig. 6 generates from it.  One result dict per job."""
    return GeneratedClient(cnx_to_python(doc)).run(cluster, runtime_args, timeout)


def client_messages(cluster):
    """Drain the client queue of every job *cluster* has run."""
    directory = cluster.directory
    return [
        message
        for job_id in directory.job_ids()
        for message in directory.lookup(job_id).job.client_queue.drain()
    ]


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
