"""conclint static passes: one focused scenario per CC code."""

import textwrap

from repro.analysis.conc.annotations import parse_waivers
from repro.analysis.conc.static import CC_CODES, analyze_source
from repro.analysis.diagnostics import Severity


def run(source: str, relpath: str = "src/repro/cn/mod.py"):
    return analyze_source(textwrap.dedent(source), relpath)


def codes(diags) -> list[str]:
    return [d.code for d in diags]


class TestParseAndWaivers:
    def test_unparseable_is_cc001_error(self):
        diags = run("def broken(:\n")
        assert codes(diags) == ["CC001"]
        assert diags[0].severity is Severity.ERROR

    def test_waiver_suppresses_on_same_line(self):
        diags = run(
            """
            try:
                x = 1
            except Exception:  # conclint: waive CC302 -- contained by design
                pass
            """
        )
        assert "CC302" not in codes(diags)

    def test_waiver_on_preceding_comment_line(self):
        diags = run(
            """
            try:
                x = 1
            # conclint: waive CC302 -- contained by design
            except Exception:
                pass
            """
        )
        assert "CC302" not in codes(diags)

    def test_bare_waiver_is_cc002(self):
        diags = run(
            """
            try:
                x = 1
            except Exception:  # conclint: waive CC302
                pass
            """
        )
        assert "CC002" in codes(diags)
        assert "CC302" not in codes(diags)

    def test_parse_waivers_multi_code(self):
        waivers, bare = parse_waivers(
            "x = f()  # conclint: waive CC201, CC203 -- snapshot pattern\n"
        )
        assert waivers[1] == {"CC201", "CC203"}
        assert bare == []

    def test_every_emittable_code_is_documented(self):
        assert set(CC_CODES) >= {
            "CC001", "CC002", "CC101", "CC102", "CC103", "CC201", "CC202",
            "CC203", "CC301", "CC302", "CC303", "CC401", "CC402", "CC403",
            "CC404",
        }


class TestLockDiscipline:
    def test_cc101_mixed_locked_and_unlocked_writes(self):
        diags = run(
            """
            import threading

            class Widget:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def locked_bump(self):
                    with self._lock:
                        self._count += 1

                def racy_bump(self):
                    self._count += 1
            """
        )
        found = [d for d in diags if d.code == "CC101"]
        assert len(found) == 1
        assert "racy_bump" in found[0].location.path

    def test_cc101_init_writes_exempt(self):
        diags = run(
            """
            import threading

            class Widget:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def locked_bump(self):
                    with self._lock:
                        self._count += 1
            """
        )
        assert "CC101" not in codes(diags)

    def test_cc101_container_mutation_counts_as_write(self):
        diags = run(
            """
            import threading

            class Widget:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def locked_add(self, x):
                    with self._lock:
                        self._items.append(x)

                def racy_add(self, x):
                    self._items.append(x)
            """
        )
        assert "CC101" in codes(diags)

    def test_cc102_two_different_locks(self):
        diags = run(
            """
            import threading

            class Widget:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._count = 0

                def via_a(self):
                    with self._a:
                        self._count += 1

                def via_b(self):
                    with self._b:
                        self._count += 1
            """
        )
        assert "CC102" in codes(diags)

    def test_cc103_declared_guard_violated(self):
        # TupleSpace._tuples is declared guarded by TupleSpace._lock in
        # the annotation registry; an unlocked write is an *error*.
        diags = run(
            """
            import threading

            class TupleSpace:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._tuples = []

                def sneak(self, t):
                    self._tuples.append(t)
            """
        )
        found = [d for d in diags if d.code == "CC103"]
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_cc103_satisfied_by_condition_over_same_lock(self):
        diags = run(
            """
            import threading

            class TupleSpace:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._changed = threading.Condition(self._lock)
                    self._tuples = []

                def out(self, t):
                    with self._changed:
                        self._tuples.append(t)
            """
        )
        assert "CC103" not in codes(diags)


class TestBlockingUnderLock:
    def test_cc201_bus_publish_under_lock(self):
        diags = run(
            """
            import threading

            class Node:
                def __init__(self, bus):
                    self._lock = threading.Lock()
                    self._bus = bus

                def announce(self):
                    with self._lock:
                        self._bus.publish("topic", {})
            """
        )
        assert "CC201" in codes(diags)

    def test_cc201_queue_get_but_not_dict_get(self):
        diags = run(
            """
            import threading

            class Node:
                def __init__(self, queue):
                    self._lock = threading.Lock()
                    self._queue = queue
                    self._table = {}

                def drain(self):
                    with self._lock:
                        self._table.get("x")
                        return self._queue.get()
            """
        )
        found = [d for d in diags if d.code == "CC201"]
        assert len(found) == 1
        assert "_queue" in found[0].message

    def test_cc201_condition_wait_on_held_condition_is_fine(self):
        diags = run(
            """
            import threading

            class Cell:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._changed = threading.Condition(self._lock)

                def block(self):
                    with self._changed:
                        self._changed.wait()
            """
        )
        assert "CC201" not in codes(diags)

    def test_cc202_nested_distinct_locks(self):
        diags = run(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def both(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )
        assert "CC202" in codes(diags)

    def test_cc203_callback_under_lock(self):
        diags = run(
            """
            import threading

            class Emitter:
                def __init__(self, callback):
                    self._lock = threading.Lock()
                    self._callback = callback

                def fire(self):
                    with self._lock:
                        self._callback("event")
            """
        )
        assert "CC203" in codes(diags)


class TestExceptionHygiene:
    def test_cc301_bare_except_is_error(self):
        diags = run("try:\n    x = 1\nexcept:\n    pass\n")
        found = [d for d in diags if d.code == "CC301"]
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_cc302_broad_except(self):
        diags = run("try:\n    x = 1\nexcept Exception:\n    pass\n")
        assert "CC302" in codes(diags)

    def test_cc303_swallowed_shutdown(self):
        diags = run(
            """
            def route(job, msg):
                try:
                    job.route(msg)
                except ShutdownError:
                    pass
            """
        )
        assert "CC303" in codes(diags)

    def test_cc303_not_flagged_when_handled(self):
        diags = run(
            """
            def route(job, msg):
                try:
                    job.route(msg)
                except ShutdownError as exc:
                    job.undeliverable.append((msg, exc))
            """
        )
        assert "CC303" not in codes(diags)


class TestTransportReadiness:
    def test_cc401_lambda_payload(self):
        diags = run(
            """
            def ship(queue):
                queue.put(lambda: 1)
            """
        )
        assert "CC401" in codes(diags)

    def test_cc402_private_attr_across_objects(self):
        diags = run(
            """
            def peek(other):
                return other._hidden
            """
        )
        assert "CC402" in codes(diags)

    def test_cc402_self_access_is_fine(self):
        diags = run(
            """
            class Own:
                def peek(self):
                    return self._hidden
            """
        )
        assert "CC402" not in codes(diags)

    def test_cc402_scoped_to_cn_modules(self):
        diags = analyze_source(
            "def peek(other):\n    return other._hidden\n",
            "src/repro/core/uml/builder.py",
        )
        assert "CC402" not in codes(diags)

    def test_cc403_mutation_after_fan_out(self):
        diags = run(
            """
            def fan(job, payload):
                job.route_many(payload)
                payload["late"] = 1
            """
        )
        assert "CC403" in codes(diags)

    def test_cc403_mutation_before_fan_out_is_fine(self):
        diags = run(
            """
            def fan(job, payload):
                payload["early"] = 1
                job.route_many(payload)
            """
        )
        assert "CC403" not in codes(diags)

    def test_cc404_generator_in_endpoint_payload(self):
        diags = run(
            """
            def ship(endpoint, rows):
                endpoint.send(("exec", {"data": (r * 2 for r in rows)}))
            """
        )
        assert "CC404" in codes(diags)

    def test_cc404_live_lock_in_endpoint_payload(self):
        diags = run(
            """
            import threading

            def ship(self):
                self.endpoint.send({"guard": threading.Lock()})
            """
        )
        assert "CC404" in codes(diags)

    def test_cc404_nested_lambda_in_endpoint_payload(self):
        diags = run(
            """
            def ship(ep):
                ep.send(("msg", {"fn": lambda x: x}))
            """
        )
        assert "CC404" in codes(diags)

    def test_cc404_plain_data_is_fine(self):
        diags = run(
            """
            def ship(endpoint, block):
                endpoint.send(("outcome", {"ok": True, "rows": list(block)}))
            """
        )
        assert "CC404" not in codes(diags)

    def test_cc404_non_endpoint_send_not_flagged(self):
        diags = run(
            """
            def ship(ctx, rows):
                ctx.send("join", (r * 2 for r in rows))
            """
        )
        assert "CC404" not in codes(diags)

    def test_cc404_waivable(self):
        diags = run(
            """
            def ship(endpoint, rows):
                endpoint.send((r for r in rows))  # conclint: waive CC404 -- test double consumes it in-process
            """
        )
        assert "CC404" not in codes(diags)


class TestDiagnosticModel:
    def test_shared_schema_with_tool_and_line(self):
        diags = run("try:\n    x = 1\nexcept Exception:\n    pass\n")
        d = next(d for d in diags if d.code == "CC302")
        payload = d.to_dict()
        assert {"code", "severity", "message", "location", "hint", "tool", "line"} <= set(payload)
        assert payload["tool"] == "conclint"
        assert payload["line"] == d.location.line > 0
        assert str(d.location).endswith(f":{d.location.line}")

    def test_cn_codes_report_cnlint_tool(self):
        from repro.analysis.diagnostics import Diagnostic

        assert Diagnostic("CN101", Severity.ERROR, "x").tool == "cnlint"


class TestGuardedByFacts:
    """A fact about an attribute nothing assigns checks nothing: CC103
    looks writes up by ``Class.attr``, so a rename orphans the fact in
    silence.  Every key (and the lock it names) must be an attribute the
    class, or a base class of it, assigns somewhere under ``src/repro``."""

    @staticmethod
    def assigned_attributes():
        import ast
        import pathlib

        import repro

        assigned: dict[str, set[str]] = {}
        bases: dict[str, list[str]] = {}
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(cls, ast.ClassDef):
                    continue
                attrs = assigned.setdefault(cls.name, set())
                bases.setdefault(cls.name, []).extend(
                    b.id for b in cls.bases if isinstance(b, ast.Name)
                )
                for node in ast.walk(cls):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                        targets = [node.target]
                    else:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)

        def with_inherited(name: str) -> set[str]:
            found = set(assigned.get(name, ()))
            for base in bases.get(name, ()):
                found |= with_inherited(base)
            return found

        return {name: with_inherited(name) for name in assigned}

    def test_every_fact_names_an_attribute_its_class_assigns(self):
        from repro.analysis.conc.annotations import GUARDED_BY

        attributes = self.assigned_attributes()
        orphans = [
            f"{fact} -> {lock}"
            for fact, lock in GUARDED_BY.items()
            for cls, attr in (fact.split(".", 1), lock.split(".", 1))
            if attr not in attributes.get(cls, ())
        ]
        assert orphans == []

    def test_the_walk_sees_a_missing_attribute(self):
        attributes = self.assigned_attributes()
        assert "_drive" in attributes["Job"]
        assert "_by_job" in attributes["FileJournal"]  # inherited
        assert "_running" not in attributes["TaskManager"]
        assert "_entries" not in attributes["MemoryJournal"]
