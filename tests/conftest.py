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


class Hosting:
    """A hosting stand-in whose queue is already built: what a :class:`Job`
    delivers into, for tests that drive a Job without a TaskManager."""

    def __init__(self, queue):
        self.queue = queue

    def inbox(self):
        return self.queue


def run_client(doc, cluster, runtime_args=None, timeout=30.0):
    """Run the CNX document *doc* the one way the product does: through the
    client program Fig. 6 generates from it.  One result dict per job."""
    return GeneratedClient(cnx_to_python(doc)).run(cluster, runtime_args, timeout)


def record_client(doc):
    """Run the client program generated for *doc* against a CN API that
    records each call and runs nothing.  Returns ``(calls, job_results)``:
    the calls as ``(verb, handle, argument)`` in the order they were made,
    handles numbered from 1 in creation order, and what ``run`` returned,
    where a job's result is ``{"handle": handle}``."""
    calls = []

    class RecordingAPI:
        @staticmethod
        def initialize(cluster):
            return RecordingAPI()

        def create_job(self, client_cls, requirements):
            handle = 1 + sum(verb == "create_job" for verb, _, _ in calls)
            calls.append(("create_job", handle, client_cls))
            return handle

        def create_task(self, handle, spec):
            calls.append(("create_task", handle, spec))

        def start_job(self, handle):
            calls.append(("start_job", handle, None))

        def wait(self, handle, timeout):
            calls.append(("wait", handle, None))
            return {"handle": handle}

    namespace = {}
    exec(compile(cnx_to_python(doc), "<generated-client>", "exec"), namespace)
    namespace["CNAPI"] = RecordingAPI
    return calls, namespace["run"](None, None, 1.0)


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
