"""Task archives: the Python analogue of the paper's task JAR files.

"A Task is typically packaged as a self-sufficient JAR file that has a
class that conforms to the Task interface defined by CN API" (paper
section 3).  Our archives are zip files with the same contract:

* ``CN-MANIFEST.json`` -- maps fully-qualified class names (dotted, Java
  style, e.g. ``org.jhpc.cn2.trnsclsrtask.TCTask``) to the Python module
  and attribute implementing them,
* one or more ``.py`` source files.

:func:`create_archive` builds one from source text; :func:`load_archive`
opens and verifies one; :meth:`TaskArchive.load_class` materializes a
task class by executing the packaged module in an isolated namespace
(archives are self-sufficient: they may import the standard library,
numpy, and ``repro.cn`` itself, but not each other).
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Mapping, Optional, Type

from .errors import ArchiveError, TaskLoadError
from .task import Task

__all__ = ["TaskArchive", "create_archive", "load_archive", "MANIFEST_NAME"]

MANIFEST_NAME = "CN-MANIFEST.json"


class TaskArchive:
    """An opened, verified task archive."""

    def __init__(self, name: str, manifest: dict, sources: dict[str, str]) -> None:
        self.name = name
        self.manifest = manifest
        self.sources = sources
        self._class_cache: dict[str, Type[Task]] = {}

    @property
    def classes(self) -> dict[str, dict]:
        return self.manifest.get("classes", {})

    def load_class(self, class_name: str) -> Type[Task]:
        """Resolve *class_name* to the packaged task class.

        The module executes once per archive instance and is cached;
        repeated task creations reuse the same class object, matching the
        JVM semantics of loading a class once per classloader.
        """
        if class_name in self._class_cache:
            return self._class_cache[class_name]
        entry = self.classes.get(class_name)
        if entry is None:
            raise TaskLoadError(
                f"archive {self.name!r} does not provide class {class_name!r} "
                f"(has: {sorted(self.classes)})"
            )
        module_file = entry.get("module")
        attribute = entry.get("attribute")
        if module_file not in self.sources:
            raise ArchiveError(
                f"archive {self.name!r} manifest points at missing module "
                f"{module_file!r}"
            )
        namespace: dict = {"__name__": f"cn_archive_{self.name.replace('.', '_')}"}
        try:
            exec(compile(self.sources[module_file], module_file, "exec"), namespace)
        except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- archive modules are arbitrary user code; converted to TaskLoadError
            raise TaskLoadError(
                f"archive {self.name!r} module {module_file!r} failed to execute: {exc}"
            ) from exc
        cls = namespace.get(attribute)
        if cls is None:
            raise TaskLoadError(
                f"archive {self.name!r} module {module_file!r} has no attribute "
                f"{attribute!r}"
            )
        if not (isinstance(cls, type) and issubclass(cls, Task)):
            raise TaskLoadError(
                f"{class_name!r} in archive {self.name!r} does not implement the "
                "Task interface"
            )
        self._class_cache[class_name] = cls
        return cls

    def to_bytes(self) -> bytes:
        """Serialize back to zip bytes (what the JobManager 'uploads')."""
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr(MANIFEST_NAME, json.dumps(self.manifest, indent=2))
            for filename, source in self.sources.items():
                zf.writestr(filename, source)
        return buf.getvalue()


def create_archive(
    name: str,
    classes: Mapping[str, str],
    sources: Mapping[str, str],
    *,
    path: Optional[Path] = None,
) -> TaskArchive:
    """Build an archive.

    *classes* maps fully-qualified class names to ``module.py:Attribute``
    locators; *sources* maps module file names to Python source text.
    When *path* is given the zip is also written to disk.
    """
    manifest: dict = {"name": name, "classes": {}}
    for class_name, locator in classes.items():
        module_file, _, attribute = locator.partition(":")
        if not module_file or not attribute:
            raise ArchiveError(
                f"bad locator {locator!r} for {class_name!r}; expected 'file.py:Attr'"
            )
        if module_file not in sources:
            raise ArchiveError(f"locator {locator!r} references missing source file")
        manifest["classes"][class_name] = {"module": module_file, "attribute": attribute}
    archive = TaskArchive(name, manifest, dict(sources))
    if path is not None:
        Path(path).write_bytes(archive.to_bytes())
    return archive


def load_archive(source: bytes | str | Path, *, name: Optional[str] = None) -> TaskArchive:
    """Open an archive from zip bytes or a file path and verify its manifest."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        data = path.read_bytes()
        default_name = path.name
    else:
        data = source
        default_name = name or "archive.jar"
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            names = zf.namelist()
            if MANIFEST_NAME not in names:
                raise ArchiveError(f"{default_name}: no {MANIFEST_NAME} in archive")
            manifest = json.loads(zf.read(MANIFEST_NAME).decode())
            sources = {
                n: zf.read(n).decode()
                for n in names
                if n != MANIFEST_NAME and n.endswith(".py")
            }
    except zipfile.BadZipFile as exc:
        raise ArchiveError(f"{default_name}: not a zip archive: {exc}") from exc
    archive_name = name or manifest.get("name") or default_name
    for class_name, entry in manifest.get("classes", {}).items():
        if not isinstance(entry, dict) or "module" not in entry or "attribute" not in entry:
            raise ArchiveError(
                f"{archive_name}: malformed manifest entry for {class_name!r}"
            )
    return TaskArchive(archive_name, manifest, sources)
