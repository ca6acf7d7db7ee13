"""conclint static passes: AST analysis of the runtime's lock discipline.

Four code families, one tree walk per file:

====== ========= ===========================================================
code   severity  finding
====== ========= ===========================================================
CC001  error     file does not parse
CC002  warning   waiver comment without a ``-- reason`` justification
CC101  warning   attribute written both under and outside a lock
CC102  warning   attribute written under two different locks
CC103  error     write violates a declared guarded-by fact
CC201  warning   blocking call (bus/queue/journal/wait/join) under a lock
CC202  warning   second lock acquired while one is held
CC203  warning   user callback invoked while a lock is held
CC301  error     bare ``except:``
CC302  warning   over-broad ``except Exception/BaseException``
CC303  warning   ``ShutdownError`` swallowed (handler body is ``pass``)
CC401  warning   unpicklable payload (lambda) handed to a message call
CC402  warning   private attribute reached across the node/bus interface
CC403  warning   fan-out payload mutated after being shared by reference
CC404  warning   payload crossing ``SocketEndpoint.send`` the codec cannot serialize
====== ========= ===========================================================

Lock knowledge is *syntactic*: a class's lock attributes are the ones
assigned ``threading.Lock/RLock/Condition`` or the runtime's
``make_lock/make_condition`` factories, and "under the lock" means
lexically inside ``with self.<lockattr>:``.  ``__init__`` writes are
exempt from CC10x — construction happens-before publication.  Declared
facts come from :data:`repro.analysis.conc.annotations.GUARDED_BY`;
known-safe sites carry inline waivers (see :mod:`.annotations`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..diagnostics import Diagnostic, Report, Severity, SourceLocation
from .annotations import (
    CALLBACK_ATTRS,
    GUARDED_BY,
    LOCK_ORDER_EXEMPT,
    parse_waivers,
)

__all__ = ["CC_CODES", "analyze_source", "analyze_paths", "fingerprint"]

CC_CODES: dict[str, str] = {
    "CC001": "file does not parse",
    "CC002": "waiver without justification",
    "CC101": "attribute written both under and outside a lock",
    "CC102": "attribute written under two different locks",
    "CC103": "write violates a declared guarded-by fact",
    "CC201": "blocking call under a lock",
    "CC202": "second lock acquired while one is held",
    "CC203": "callback invoked while a lock is held",
    "CC301": "bare except",
    "CC302": "over-broad except clause",
    "CC303": "ShutdownError swallowed",
    "CC401": "unpicklable payload in message call",
    "CC402": "private attribute access across the node/bus interface",
    "CC403": "fan-out payload mutated after sharing by reference",
    "CC404": "unserializable payload crossing an endpoint send",
}

_ERROR_CODES = {"CC001", "CC103", "CC301"}

# (method name, receiver-name substrings that make it a blocking hazard;
# empty tuple = any receiver).  Receiver matching keeps dict.get() and
# list-ish .append() from drowning the real bus/queue/journal sites.
_BLOCKING: dict[str, tuple[str, tuple[str, ...]]] = {
    "publish": ("bus publish fans out to subscriber callbacks", ("bus",)),
    "solicit": ("bus solicit blocks on subscriber replies", ("bus",)),
    "put": ("queue put may block on capacity/backpressure", ("queue", "inbox")),
    "get": ("queue get blocks until a message arrives", ("queue", "inbox")),
    "append": ("journal append does write-ahead I/O and replication", ("journal", "backend")),
    "extend": ("journal extend does write-ahead I/O for a batch", ("backend",)),
    "append_many": ("journal batch append does write-ahead I/O and replication", ("journal",)),
    "wait": ("wait parks the thread while the lock is held", ()),
    "join": ("thread join blocks until the target exits", ()),
}

_FAN_OUT_CALLS = {"route_many", "multicast", "send_many", "broadcast"}
_MESSAGE_CALLS = {"put", "publish", "send", "route", "route_many", "send_many", "Message"}

# CC404: constructions the wire codec (pickle protocol 5) cannot
# serialize when they appear inside a payload handed to SocketEndpoint.send.
_UNPICKLABLE_CTORS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Thread", "open", "socket", "socketpair",
}
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "remove",
    "discard", "clear", "setdefault", "popitem", "sort", "reverse",
}


def _severity(code: str) -> Severity:
    return Severity.ERROR if code in _ERROR_CODES else Severity.WARNING


@dataclass
class _Finding:
    code: str
    message: str
    lineno: int
    scope: str  # "Class.method" | "<module>"
    detail: str  # stable fingerprint key (attr/call name), line-independent
    hint: str = ""


def fingerprint(relpath: str, finding_code: str, scope: str, detail: str) -> str:
    """Line-number-independent identity used for baseline suppression."""
    return f"{finding_code}|{relpath}|{scope}|{detail}"


def _is_lock_ctor(node: ast.expr) -> Optional[str]:
    """'lock' | 'cond' if *node* constructs a lock-ish object, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name in {"Lock", "RLock", "make_lock"}:
        return "lock"
    if name in {"Condition", "make_condition"}:
        return "cond"
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """The X of a ``self.X`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _receiver_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # noqa: BLE001  # conclint: waive CC302 -- unparse is best-effort labelling only
        return "<expr>"


class _ClassInfo:
    """What the lock passes need to know about one class."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock_attrs: set[str] = set()
        self.cond_to_lock: dict[str, str] = {}  # cond attr -> backing lock attr
        # attr -> {frozenset of canonical lock attrs held at a write}
        self.write_guards: dict[str, set[frozenset[str]]] = {}
        # attr -> [(lineno, method, held) ...]
        self.writes: dict[str, list[tuple[int, str, frozenset[str]]]] = {}


class _FileAnalysis:
    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.source = source
        self.in_cn = "/cn/" in relpath.replace(os.sep, "/") or relpath.replace(
            os.sep, "/"
        ).endswith("/cn")
        self.findings: list[_Finding] = []

    # -- entry ----------------------------------------------------------------
    def run(self) -> list[_Finding]:
        try:
            tree = ast.parse(self.source)
        except SyntaxError as exc:
            self.findings.append(
                _Finding("CC001", f"file does not parse: {exc.msg}", exc.lineno or 1,
                         "<module>", "parse")
            )
            return self.findings
        self._exception_hygiene(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._analyze_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._transport_function(node)
        if self.in_cn:
            self._private_access(tree)
        return self.findings

    def _emit(self, code: str, message: str, lineno: int, scope: str,
              detail: str, hint: str = "") -> None:
        self.findings.append(_Finding(code, message, lineno, scope, detail, hint))

    # -- CC3xx: exception hygiene ---------------------------------------------
    def _exception_hygiene(self, tree: ast.Module) -> None:
        scope_of: dict[int, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    scope_of.setdefault(id(child), node.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            scope = scope_of.get(id(node), "<module>")
            caught = node.type
            if caught is None:
                self._emit(
                    "CC301", "bare `except:` catches SystemExit/KeyboardInterrupt",
                    node.lineno, scope, "bare-except",
                    hint="catch a concrete exception type, or Exception at the very least",
                )
                continue
            names = self._exc_names(caught)
            if names & {"Exception", "BaseException"}:
                self._emit(
                    "CC302",
                    f"over-broad `except {' | '.join(sorted(names))}` hides "
                    "unrelated failures",
                    node.lineno, scope, "broad-except",
                    hint="narrow to the failure actually expected here, or waive "
                    "with a rationale if any exception genuinely must be contained",
                )
            if "ShutdownError" in names and self._body_swallows(node.body):
                self._emit(
                    "CC303",
                    "ShutdownError swallowed: a closed endpoint is silently "
                    "dropped outside the delivery ledger",
                    node.lineno, scope, "swallowed-shutdown",
                    hint="tell the client through Job.notify(...), which records "
                    "the drop on the job's undeliverable list",
                )

    @staticmethod
    def _exc_names(node: ast.expr) -> set[str]:
        names: set[str] = set()
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        for part in parts:
            if isinstance(part, ast.Name):
                names.add(part.id)
            elif isinstance(part, ast.Attribute):
                names.add(part.attr)
        return names

    @staticmethod
    def _body_swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True

    # -- CC1xx / CC2xx: lock discipline ---------------------------------------
    def _analyze_class(self, cls: ast.ClassDef) -> None:
        info = _ClassInfo(cls.name)
        # pass 1: find the lock attributes (anywhere in the class)
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
                if attr is None:
                    continue
                kind = _is_lock_ctor(node.value)
                if kind == "lock":
                    info.lock_attrs.add(attr)
                elif kind == "cond":
                    info.lock_attrs.add(attr)
                    backing = None
                    call = node.value
                    if isinstance(call, ast.Call):
                        for arg in list(call.args) + [k.value for k in call.keywords]:
                            backing = _self_attr(arg) or backing
                    info.cond_to_lock[attr] = backing or attr
        if not info.lock_attrs:
            return
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _MethodWalker(self, info, node).walk()
        self._lock_consistency(info)

    def _lock_consistency(self, info: _ClassInfo) -> None:
        for attr, writes in sorted(info.writes.items()):
            guards = info.write_guards.get(attr, set())
            locked = {g for g in guards if g}
            unlocked_writes = [
                (lineno, method) for lineno, method, held in writes if not held
            ]
            declared = GUARDED_BY.get(f"{info.name}.{attr}")
            if declared is not None:
                lock_attr = declared.split(".", 1)[1]
                for lineno, method, held in writes:
                    if lock_attr not in held:
                        self._emit(
                            "CC103",
                            f"write to {info.name}.{attr} without holding "
                            f"declared guard {declared}",
                            lineno, f"{info.name}.{method}", attr,
                            hint=f"wrap the write in `with self.{lock_attr}:` or "
                            "move it to a @guarded_by helper",
                        )
                continue  # declared facts subsume the inferred checks
            if locked and unlocked_writes:
                guard_names = sorted({a for g in locked for a in g})
                for lineno, method in unlocked_writes:
                    self._emit(
                        "CC101",
                        f"{info.name}.{attr} is written under "
                        f"self.{'/'.join(guard_names)} elsewhere but without a "
                        f"lock in {method}()",
                        lineno, f"{info.name}.{method}", attr,
                        hint="take the same lock, or document why this write is "
                        "single-threaded and waive",
                    )
            if len(locked) > 1:
                first = sorted(writes)[0]
                self._emit(
                    "CC102",
                    f"{info.name}.{attr} is written under different locks "
                    f"({', '.join(sorted('+'.join(sorted(g)) for g in locked))})",
                    first[0], f"{info.name}.{first[1]}", attr,
                    hint="pick one guarding lock per attribute",
                )

    # -- CC4xx: transport readiness -------------------------------------------
    def _transport_function(self, func: ast.FunctionDef) -> None:
        shared: list[tuple[str, int]] = []  # (name, lineno shared)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            callee_name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else ""
            )
            if callee_name in _MESSAGE_CALLS:
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Lambda):
                        self._emit(
                            "CC401",
                            f"lambda passed to {callee_name}() cannot cross a "
                            "pickle boundary",
                            arg.lineno, f"?.{func.name}", callee_name,
                            hint="pass a registry task name or a module-level "
                            "callable instead",
                        )
            if callee_name == "send" and self._endpoint_receiver(callee):
                self._check_endpoint_payload(node, func.name)
            if callee_name in _FAN_OUT_CALLS and self.in_cn:
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        shared.append((arg.id, node.lineno))
        if not shared:
            return
        shared_names = {name: lineno for name, lineno in shared}
        for node in ast.walk(func):
            target_name: Optional[str] = None
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                target_name = node.target.id
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Subscript) and isinstance(tgt.value, ast.Name):
                        target_name = tgt.value.id
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in _MUTATING_METHODS
            ):
                target_name = node.func.value.id
            if target_name in shared_names and node.lineno > shared_names[target_name]:
                self._emit(
                    "CC403",
                    f"`{target_name}` was fanned out by reference at line "
                    f"{shared_names[target_name]} and is mutated afterwards — "
                    "receivers alias it in-process but would hold a stale copy "
                    "across a real transport",
                    node.lineno, f"?.{func.name}", target_name,
                    hint="treat fanned-out payloads as frozen (copy before mutating)",
                )

    @staticmethod
    def _endpoint_receiver(callee: ast.expr) -> bool:
        """True when ``<recv>.send(...)`` targets a transport endpoint:
        the receiver expression names an endpoint (``self.endpoint``,
        ``worker._endpoint``, ...) or is the conventional ``ep`` local."""
        if not isinstance(callee, ast.Attribute):
            return False
        receiver = _receiver_text(callee.value).lower()
        if "endpoint" in receiver:
            return True
        leaf = receiver.rsplit(".", 1)[-1]
        return leaf in {"ep", "_ep"}

    def _check_endpoint_payload(self, call: ast.Call, scope: str) -> None:
        """CC404: anything inside a SocketEndpoint.send payload the frame
        codec (pickle protocol 5) cannot serialize.  Top-level lambdas
        are CC401's finding; this pass catches nested lambdas, generator
        expressions, and live runtime handles (locks, threads, files,
        sockets) constructed inside the payload."""
        receiver = _receiver_text(call.func.value)  # type: ignore[attr-defined]
        for arg in list(call.args) + [k.value for k in call.keywords]:
            for sub in ast.walk(arg):
                what: Optional[str] = None
                token = ""
                if isinstance(sub, ast.GeneratorExp):
                    what, token = "a generator expression", "genexp"
                elif isinstance(sub, ast.Lambda) and sub is not arg:
                    what, token = "a lambda", "lambda"
                elif isinstance(sub, ast.Call):
                    ctor = sub.func
                    name = ctor.attr if isinstance(ctor, ast.Attribute) else (
                        ctor.id if isinstance(ctor, ast.Name) else ""
                    )
                    if name in _UNPICKLABLE_CTORS:
                        what, token = f"a live {name}() handle", name
                if what is not None:
                    self._emit(
                        "CC404",
                        f"payload handed to {receiver}.send() contains {what} "
                        "the frame codec cannot serialize",
                        sub.lineno, f"?.{scope}", f"send:{token}",
                        hint="ship plain data (lists, dicts, arrays, bytes); "
                        "materialize generators and keep runtime handles on "
                        "the owning side of the wire",
                    )

    def _private_access(self, tree: ast.Module) -> None:
        func_of: dict[int, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    func_of.setdefault(id(child), node.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in {"self", "cls"}:
                continue
            if isinstance(base, ast.Name):
                # another object's privates: the classic transport-hostile
                # shortcut (works in-process, impossible across processes)
                scope = func_of.get(id(node), "<module>")
                self._emit(
                    "CC402",
                    f"access to {base.id}.{attr} reaches into another "
                    "object's private state across the node/bus interface",
                    node.lineno, f"?.{scope}", f"{base.id}.{attr}",
                    hint="add a public accessor, or waive if both objects are "
                    "node-local by design",
                )


class _MethodWalker:
    """Walks one method tracking which of the class's locks are lexically
    held, recording writes and flagging CC2xx hazards."""

    def __init__(self, analysis: _FileAnalysis, info: _ClassInfo,
                 func: ast.FunctionDef) -> None:
        self.analysis = analysis
        self.info = info
        self.func = func
        self.held: list[str] = []  # canonical lock attr names, outermost first

    def walk(self) -> None:
        for stmt in self.func.body:
            self._visit(stmt)

    # -- traversal ------------------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.With):
            self._visit_with(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs execute later, under their own discipline
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._note_writes(node)
        if isinstance(node, ast.Call):
            self._check_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_with(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in self.info.lock_attrs:
                canonical = self.info.cond_to_lock.get(attr, attr)
                if (
                    self.held
                    and canonical not in self.held
                    and canonical not in LOCK_ORDER_EXEMPT
                    and self.held[-1] not in LOCK_ORDER_EXEMPT
                ):
                    self.analysis._emit(
                        "CC202",
                        f"acquiring self.{canonical} while holding "
                        f"self.{self.held[-1]} nests two locks",
                        item.context_expr.lineno, self._scope(), canonical,
                        hint="establish (and document) a fixed order, or restructure "
                        "to release the outer lock first; the runtime verifier "
                        "checks the order globally",
                    )
                if canonical not in self.held:
                    self.held.append(canonical)
                    acquired.append(canonical)
            else:
                # `with` over a non-lock (a file, a span): still visit the
                # context expression for calls under the current locks.
                self._visit(item.context_expr)
        for stmt in node.body:
            self._visit(stmt)
        for canonical in reversed(acquired):
            self.held.remove(canonical)

    def _scope(self) -> str:
        return f"{self.info.name}.{self.func.name}"

    # -- writes ---------------------------------------------------------------
    def _note_writes(self, node: ast.stmt) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]  # type: ignore[list-item]
        for target in targets:
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
            if attr is None or attr in self.info.lock_attrs:
                continue
            self._record_write(attr, node.lineno)

    def _record_write(self, attr: str, lineno: int) -> None:
        if self.func.name == "__init__":
            return  # construction happens-before publication
        held = frozenset(self.held)
        self.info.write_guards.setdefault(attr, set()).add(held)
        self.info.writes.setdefault(attr, []).append(
            (lineno, self.func.name, held)
        )

    # -- calls under lock -----------------------------------------------------
    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        # container-mutation on self.X counts as a write to X
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            attr = _self_attr(func.value)
            if attr is not None and attr not in self.info.lock_attrs:
                self._record_write(attr, node.lineno)
        if not self.held:
            return
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver_attr = _self_attr(func.value)
            if receiver_attr is not None and receiver_attr in self.info.lock_attrs:
                return  # wait/notify on the very condition being held
            entry = _BLOCKING.get(method)
            if entry is not None:
                reason, hints = entry
                receiver = _receiver_text(func.value)
                if not hints or any(h in receiver.lower() for h in hints):
                    self.analysis._emit(
                        "CC201",
                        f"{receiver}.{method}() under self.{self.held[-1]}: {reason}",
                        node.lineno, self._scope(), f"{method}",
                        hint="move the call outside the `with` block (snapshot "
                        "state under the lock, act after releasing), or waive "
                        "with the invariant that makes it safe",
                    )
            if method in CALLBACK_ATTRS or (
                receiver_attr in CALLBACK_ATTRS if receiver_attr else False
            ):
                self._callback_finding(node)
        elif isinstance(func, ast.Name) and func.id in {"callback", "handler"}:
            self._callback_finding(node)

    def _callback_finding(self, node: ast.Call) -> None:
        self.analysis._emit(
            "CC203",
            f"user callback invoked while holding self.{self.held[-1]} — "
            "re-entrant user code can deadlock or recurse into the runtime",
            node.lineno, self._scope(), "callback",
            hint="collect callbacks under the lock, invoke after releasing",
        )


# -- drivers ------------------------------------------------------------------


def analyze_source(source: str, relpath: str) -> list[Diagnostic]:
    """Analyze one file's text; waivers already applied."""
    waivers, bare = parse_waivers(source)
    findings = _FileAnalysis(relpath, source).run()
    diags: list[Diagnostic] = []
    for lineno in bare:
        diags.append(
            Diagnostic(
                code="CC002",
                severity=Severity.WARNING,
                message="waiver without justification (add `-- reason`)",
                location=SourceLocation(relpath, "<module>", lineno),
                hint="waivers must say why the site is safe",
                pass_name="conc-waivers",
            )
        )
    for f in findings:
        if f.code in waivers.get(f.lineno, ()):
            continue
        diags.append(
            Diagnostic(
                code=f.code,
                severity=_severity(f.code),
                message=f.message,
                location=SourceLocation(relpath, f.scope, f.lineno),
                hint=f.hint,
                pass_name=f"conc-{f.code[:4].lower()}xx",
            )
        )
    diags.sort(key=lambda d: (d.location.line, d.code))
    return diags


def _iter_py_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in sorted(dirnames) if d != "__pycache__"]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def analyze_paths(paths: Sequence[str], *, root: str = ".") -> Report:
    """Run every pass over the .py files under *paths*."""
    report = Report()
    for filepath in _iter_py_files(paths):
        relpath = os.path.relpath(filepath, root).replace(os.sep, "/")
        try:
            with open(filepath, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.extend([
                Diagnostic(
                    code="CC001",
                    severity=Severity.ERROR,
                    message=f"cannot read {relpath}: {exc}",
                    location=SourceLocation(relpath, "<module>"),
                    pass_name="conc-io",
                )
            ])
            continue
        report.extend(analyze_source(source, relpath))
    return report
