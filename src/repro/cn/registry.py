"""Task class resolution: archive names + class names -> Python classes.

CNX descriptors reference tasks by ``(jar, class)``.  The registry
resolves those references from two sources, in order:

1. **Registered classes** -- Python task classes registered directly
   (``register_class``), the convenient path for library users whose
   tasks live in normal Python modules (e.g. ``repro.apps.floyd``),
2. **Archive search path** -- directories scanned for ``<jar>`` files on
   demand, mirroring deployment where jars sit next to the descriptor;
   an archive is loaded once and kept.

The registry is what the JobManager "uploads" from: when a TaskManager
agrees to host a task, the manager ships the resolved archive (or the
class itself for registered classes).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Type

from .archive import TaskArchive, load_archive
from .errors import TaskLoadError
from .task import Task

__all__ = ["TaskRegistry"]


class TaskRegistry:
    """Resolves (jar, class) descriptor references to Task classes."""

    def __init__(self) -> None:
        self._classes: dict[tuple[str, str], Type[Task]] = {}
        #: the archives loaded from the search path, by jar name
        self._archives: dict[str, TaskArchive] = {}
        #: directories :meth:`add_search_dir` adds, scanned in that order
        self.search_path: list[Path] = []

    # -- registration -----------------------------------------------------
    def register_class(self, jar: str, class_name: str, cls: Type[Task]) -> None:
        """Directly bind a descriptor reference to a Python class."""
        if not (isinstance(cls, type) and issubclass(cls, Task)):
            raise TaskLoadError(f"{cls!r} does not implement the Task interface")
        self._classes[(jar, class_name)] = cls

    def add_search_dir(self, directory: Path | str) -> None:
        self.search_path.append(Path(directory))

    # -- resolution ----------------------------------------------------------
    def resolve(self, jar: str, class_name: str) -> Type[Task]:
        """The Task class for a descriptor ``(jar, class)`` reference."""
        direct = self._classes.get((jar, class_name))
        if direct is not None:
            return direct
        archive = self._archives.get(jar)
        if archive is None:
            archive = self._load_from_path(jar)
        if archive is not None:
            return archive.load_class(class_name)
        raise TaskLoadError(
            f"cannot resolve task class {class_name!r} from jar {jar!r}: "
            f"not registered and not on the search path "
            f"({[str(p) for p in self.search_path] or 'empty'})"
        )

    def _load_from_path(self, jar: str) -> Optional[TaskArchive]:
        for directory in self.search_path:
            candidate = directory / jar
            if candidate.is_file():
                archive = load_archive(candidate)
                self._archives[jar] = archive
                return archive
        return None
