"""Run models, FunctionTask, and message protocol odds and ends."""

import pytest

from repro.cn import CNAPI, MessageType, RunModel, TaskSpec
from repro.cn.task import FunctionTask


class TestRunModel:
    def test_parse_known(self):
        assert RunModel.parse("RUN_AS_THREAD_IN_TM") is RunModel.RUN_AS_THREAD_IN_TM
        assert RunModel.parse("RUN_AS_PROCESS") is RunModel.RUN_AS_PROCESS
        assert RunModel.parse("RUN_IN_JOBMANAGER") is RunModel.RUN_IN_JOBMANAGER

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown runmodel"):
            RunModel.parse("RUN_ON_THE_MOON")

    def test_slot_occupancy(self):
        assert RunModel.RUN_AS_THREAD_IN_TM.occupies_slot
        assert RunModel.RUN_AS_PROCESS.occupies_slot
        assert not RunModel.RUN_IN_JOBMANAGER.occupies_slot

    def test_is_string_enum(self):
        assert RunModel.RUN_AS_PROCESS == "RUN_AS_PROCESS"

    def test_run_as_process_executes(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("c")
        api.create_task(
            handle,
            TaskSpec(
                name="p", jar="echo.jar", cls="test.Echo",
                runmodel=RunModel.RUN_AS_PROCESS, params=(1,),
            ),
        )
        api.start_job(handle)
        assert api.wait(handle, timeout=10)["p"] == (1,)


class TestFunctionTask:
    def test_subclass_with_fn(self, cluster):
        class Doubler(FunctionTask):
            fn = staticmethod(lambda ctx, x: x * 2)

        cluster.registry.register_class("fn.jar", "t.Doubler", Doubler)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("c")
        api.create_task(handle, TaskSpec(name="d", jar="fn.jar", cls="t.Doubler", params=(21,)))
        api.start_job(handle)
        assert api.wait(handle, timeout=10)["d"] == 42

    def test_without_fn_fails(self):
        task = FunctionTask(1)
        with pytest.raises(NotImplementedError):
            task.run(None)


class TestMessageProtocolShape:
    def test_every_request_has_response_types(self):
        from repro.cn.messages import WELL_DEFINED

        for request, (action, responses) in WELL_DEFINED.items():
            assert action, f"{request} lacks an action description"
            if request != MessageType.SHUTDOWN:
                assert responses, f"{request} lacks expected responses"
