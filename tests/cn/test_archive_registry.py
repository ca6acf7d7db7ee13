"""Task archive ("jar") packaging and registry resolution tests."""

import pytest

from repro.cn.archive import MANIFEST_NAME, create_archive, load_archive
from repro.cn.errors import ArchiveError, TaskLoadError
from repro.cn.registry import TaskRegistry
from repro.cn.task import Task

GOOD_SOURCE = """
from repro.cn.task import Task

class Adder(Task):
    def __init__(self, a=0, b=0):
        self.a, self.b = a, b
    def run(self, ctx):
        return self.a + self.b

class NotATask:
    pass
"""


def good_archive(path=None):
    return create_archive(
        "adder.jar",
        {"org.example.Adder": "adder.py:Adder"},
        {"adder.py": GOOD_SOURCE},
        path=path,
    )


def adder_on_search_path(directory):
    """A registry whose search path holds ``adder.jar``, in *directory*."""
    good_archive(directory / "adder.jar")
    registry = TaskRegistry()
    registry.add_search_dir(directory)
    return registry


class TestArchive:
    def test_create_and_load_class(self):
        archive = good_archive()
        cls = archive.load_class("org.example.Adder")
        assert issubclass(cls, Task)
        assert cls(2, 3).run(None) == 5

    def test_class_cached(self):
        archive = good_archive()
        assert archive.load_class("org.example.Adder") is archive.load_class(
            "org.example.Adder"
        )

    def test_unknown_class(self):
        with pytest.raises(TaskLoadError, match="does not provide"):
            good_archive().load_class("org.example.Ghost")

    def test_non_task_class_rejected(self):
        archive = create_archive(
            "bad.jar",
            {"org.example.NotATask": "adder.py:NotATask"},
            {"adder.py": GOOD_SOURCE},
        )
        with pytest.raises(TaskLoadError, match="Task interface"):
            archive.load_class("org.example.NotATask")

    def test_missing_attribute(self):
        archive = create_archive(
            "bad.jar",
            {"org.example.Missing": "adder.py:Nothing"},
            {"adder.py": GOOD_SOURCE},
        )
        with pytest.raises(TaskLoadError, match="no attribute"):
            archive.load_class("org.example.Missing")

    def test_broken_source(self):
        archive = create_archive(
            "broken.jar",
            {"org.example.X": "x.py:X"},
            {"x.py": "this is not python ]["},
        )
        with pytest.raises(TaskLoadError, match="failed to execute"):
            archive.load_class("org.example.X")

    def test_bad_locator(self):
        with pytest.raises(ArchiveError, match="locator"):
            create_archive("x.jar", {"C": "nofile"}, {})

    def test_locator_references_missing_source(self):
        with pytest.raises(ArchiveError, match="missing source"):
            create_archive("x.jar", {"C": "ghost.py:C"}, {"real.py": ""})

    def test_bytes_roundtrip(self):
        archive = good_archive()
        restored = load_archive(archive.to_bytes(), name="adder.jar")
        assert "org.example.Adder" in restored.classes
        assert restored.load_class("org.example.Adder")(1, 1).run(None) == 2

    def test_disk_roundtrip(self, tmp_path):
        path = tmp_path / "adder.jar"
        create_archive(
            "adder.jar",
            {"org.example.Adder": "adder.py:Adder"},
            {"adder.py": GOOD_SOURCE},
            path=path,
        )
        restored = load_archive(path)
        assert restored.name == "adder.jar"

    def test_not_a_zip(self):
        with pytest.raises(ArchiveError, match="zip"):
            load_archive(b"definitely not a zip")

    def test_missing_manifest(self, tmp_path):
        import zipfile

        path = tmp_path / "nomanifest.jar"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("x.py", "pass")
        with pytest.raises(ArchiveError, match=MANIFEST_NAME):
            load_archive(path)

    def test_malformed_manifest_entry(self, tmp_path):
        import json
        import zipfile

        path = tmp_path / "bad.jar"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr(MANIFEST_NAME, json.dumps({"classes": {"C": "oops"}}))
        with pytest.raises(ArchiveError, match="malformed"):
            load_archive(path)


class TestRegistry:
    def test_register_class(self):
        registry = TaskRegistry()

        class T(Task):
            def run(self, ctx):
                return 1

        registry.register_class("x.jar", "p.T", T)
        assert registry.resolve("x.jar", "p.T") is T

    def test_register_class_requires_task(self):
        registry = TaskRegistry()
        with pytest.raises(TaskLoadError):
            registry.register_class("x.jar", "p.T", object)  # type: ignore[arg-type]

    def test_a_search_path_archive_is_loaded_once(self, tmp_path):
        registry = adder_on_search_path(tmp_path)
        cls = registry.resolve("adder.jar", "org.example.Adder")
        assert cls(1, 2).run(None) == 3
        (tmp_path / "adder.jar").unlink()  # the loaded archive is kept
        assert registry.resolve("adder.jar", "org.example.Adder") is cls

    def test_search_path(self, tmp_path):
        create_archive(
            "disk.jar",
            {"org.example.Adder": "adder.py:Adder"},
            {"adder.py": GOOD_SOURCE},
            path=tmp_path / "disk.jar",
        )
        registry = TaskRegistry()
        registry.add_search_dir(tmp_path)
        assert registry.resolve("disk.jar", "org.example.Adder")(0, 0).run(None) == 0
        # a directory joins the path one way, and the registry lists nothing
        with pytest.raises(TypeError, match="search_path"):
            TaskRegistry(search_path=(tmp_path,))
        with pytest.raises(AttributeError):
            registry.known_jars()

    def test_unresolvable(self):
        registry = TaskRegistry()
        with pytest.raises(TaskLoadError, match="cannot resolve"):
            registry.resolve("ghost.jar", "p.T")

    def test_direct_registration_beats_archive(self, tmp_path):
        registry = adder_on_search_path(tmp_path)

        class Override(Task):
            def run(self, ctx):
                return "override"

        registry.register_class("adder.jar", "org.example.Adder", Override)
        assert registry.resolve("adder.jar", "org.example.Adder") is Override
