"""Message model and per-task queue tests."""

import threading
import time

import pytest

from repro.cn.errors import MessageTimeout, ShutdownError
from repro.cn.messages import Message, MessageType, expected_response, is_well_defined
from repro.cn.queues import MessageQueue


class TestMessages:
    def test_serials_are_unique_and_increasing(self):
        a = Message(MessageType.USER, "x", "y")
        b = Message(MessageType.USER, "x", "y")
        assert b.serial > a.serial

    def test_user_factory(self):
        msg = Message.user("a", "b", {"k": 1})
        assert msg.is_user()
        assert msg.payload == {"k": 1}

    def test_well_defined_registry(self):
        assert is_well_defined(MessageType.CREATE_JOB)
        assert is_well_defined(MessageType.TASK_COMPLETED)
        assert not is_well_defined(MessageType.USER)

    def test_expected_response(self):
        assert expected_response(MessageType.START_TASK) == (MessageType.TASK_STARTED,)
        with pytest.raises(KeyError):
            expected_response(MessageType.USER)

    def test_messages_are_frozen(self):
        msg = Message.user("a", "b", 1)
        with pytest.raises(Exception):
            msg.payload = 2  # type: ignore[misc]


class TestMessageQueue:
    def test_fifo(self):
        q = MessageQueue("t")
        for i in range(3):
            q.put(Message.user("s", "t", i))
        assert [q.get(0.1).payload for _ in range(3)] == [0, 1, 2]

    def test_timeout(self):
        q = MessageQueue("t")
        with pytest.raises(MessageTimeout):
            q.get(timeout=0.05)

    def test_selective_receive_stashes(self):
        q = MessageQueue("t")
        q.put(Message.user("s", "t", "noise1"))
        q.put(Message.user("s", "t", "signal"))
        q.put(Message.user("s", "t", "noise2"))
        found = q.get_matching(lambda m: m.payload == "signal", timeout=0.2)
        assert found.payload == "signal"
        # stashed messages come back in order
        assert q.get(0.1).payload == "noise1"
        assert q.get(0.1).payload == "noise2"

    def test_selective_receive_checks_stash_first(self):
        q = MessageQueue("t")
        q.put(Message.user("s", "t", "a"))
        q.put(Message.user("s", "t", "b"))
        q.get_matching(lambda m: m.payload == "b", timeout=0.2)
        # 'a' is stashed; matching it must not block
        found = q.get_matching(lambda m: m.payload == "a", timeout=0.05)
        assert found.payload == "a"

    def test_close_unblocks_getter(self):
        q = MessageQueue("t")
        errors = []

        def waiter():
            try:
                q.get(timeout=5)
            except ShutdownError as exc:
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        q.close()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_close_unblocks_multiple_getters(self):
        q = MessageQueue("t")
        done = []

        def waiter():
            try:
                q.get(timeout=5)
            except ShutdownError:
                done.append(1)

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        q.close()
        for t in threads:
            t.join(timeout=2)
        assert len(done) == 3

    def test_put_after_close_raises(self):
        q = MessageQueue("t")
        q.close()
        with pytest.raises(ShutdownError):
            q.put(Message.user("s", "t", 1))

    def test_drain(self):
        q = MessageQueue("t")
        for i in range(4):
            q.put(Message.user("s", "t", i))
        q.get_matching(lambda m: m.payload == 2, timeout=0.2)  # stashes 0, 1
        drained = q.drain()
        assert [m.payload for m in drained] == [0, 1, 3]

    def test_len_includes_stash(self):
        q = MessageQueue("t")
        for i in range(3):
            q.put(Message.user("s", "t", i))
        q.get_matching(lambda m: m.payload == 2, timeout=0.2)
        assert len(q) == 2


class TestQueueEdges:
    def test_get_matching_racing_close(self):
        q = MessageQueue("t")
        q.put(Message.user("s", "t", "noise"))
        outcome = []

        def matcher():
            try:
                outcome.append(q.get_matching(lambda m: m.payload == "never", 5))
            except ShutdownError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=matcher)
        thread.start()
        time.sleep(0.05)  # let the matcher stash "noise" and park
        q.close()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ShutdownError)
        # the stashed non-match survives the close for draining
        assert [m.payload for m in q.drain()] == ["noise"]

    def test_put_many_delivers_the_whole_batch(self):
        q = MessageQueue("t")
        assert q.put_many([Message.user("s", "t", i) for i in range(4)]) == 4
        assert len(q) == 4

    def test_put_many_partial_on_close(self):
        q = MessageQueue("t")
        batch = [Message.user("s", "t", i) for i in range(3)]
        q.close()
        assert q.put_many(batch) == 0
