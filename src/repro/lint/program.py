"""Whole-program index over a Python package tree.

:func:`build_program` walks a package root (normally ``src/repro``),
parses every module once, and assembles the project-wide facts the
flow-sensitive rules in :mod:`repro.lint.dataflow` consume:

* a **symbol table** per module -- module-level bindings, classes with
  their methods, and top-level functions;
* the **import graph** -- which in-tree modules each module imports,
  both ``import a.b`` aliases and ``from a.b import name`` bindings;
* an approximate **call graph** keyed by function qualnames
  (``repro.experiments.runner:ExperimentRunner._finish_video``),
  resolving local calls, ``self.method`` calls, and calls through
  imported modules/names;
* the **event-handler set**: every callable passed to an
  ``EventScheduler.schedule(...)``-shaped call, plus everything
  reachable from one through the call graph -- the code that runs
  inside the simulation's event loop;
* every **RNG substream site**: ``streams.stream("name")`` /
  ``streams.fork("name")`` calls with a literal name, attributed to
  their enclosing function.

Everything is built with sorted walks and sorted containers so two
builds over the same tree are identical -- the JSON report's
byte-determinism rests on this.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Value shapes that can never be mutated through the binding.
_IMMUTABLE_CALLS = frozenset(
    ("frozenset", "tuple", "int", "float", "str", "bytes", "bool")
)

#: typing constructs whose subscription builds a type alias, not state.
_TYPING_HEADS = frozenset(
    (
        "Union",
        "Optional",
        "Callable",
        "Tuple",
        "Dict",
        "List",
        "Set",
        "FrozenSet",
        "Sequence",
        "Mapping",
        "Iterable",
        "Iterator",
        "Type",
        "Literal",
        "Annotated",
    )
)


def value_kind(node: Optional[ast.AST]) -> str:
    """Coarse classification of a bound value's mutability.

    Returns ``"immutable"``, ``"mutable"``, ``"type-alias"`` or
    ``"opaque"`` (calls and names whose result type is unknown).
    """
    if node is None:
        return "opaque"
    if isinstance(node, ast.Constant):
        return "immutable"
    if isinstance(node, (ast.Tuple,)):
        if all(value_kind(e) == "immutable" for e in node.elts):
            return "immutable"
        return "mutable"
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return "mutable"
    if isinstance(node, ast.UnaryOp):
        return value_kind(node.operand)
    if isinstance(node, ast.BinOp):
        left = value_kind(node.left)
        right = value_kind(node.right)
        if left == "immutable" and right == "immutable":
            return "immutable"
        return "opaque"
    if isinstance(node, ast.Subscript):
        head = node.value
        name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if name in _TYPING_HEADS:
            return "type-alias"
        return "opaque"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _IMMUTABLE_CALLS:
                return "immutable"
            if func.id in ("list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"):
                return "mutable"
        if isinstance(func, ast.Attribute) and func.attr == "compile":
            # re.compile patterns are immutable and thread-safe.
            return "immutable"
        return "opaque"
    return "opaque"


@dataclass
class GlobalBinding:
    """One module-level name binding."""

    name: str
    lineno: int
    col: int
    kind: str  # value_kind() result


@dataclass
class StreamSite:
    """One ``streams.stream("name")`` / ``.fork("name")`` call site."""

    name: str  # the literal substream name
    module: str
    qualname: str  # enclosing function qualname, or "<module>"
    lineno: int
    col: int
    method: str  # "stream" | "fork"


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # "module:func" or "module:Class.method"
    name: str
    lineno: int
    class_name: Optional[str] = None
    #: Resolved callee qualnames (in-tree only, best effort).
    calls: List[str] = field(default_factory=list)
    #: Callback qualnames this function passes to a ``.schedule(...)``.
    schedules: List[str] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition with its methods."""

    name: str
    qualname: str  # "module:Class"
    lineno: int
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the program pass knows about one module."""

    name: str  # dotted ("repro.sim.engine")
    path: str
    source: str
    tree: ast.Module
    #: import alias -> dotted module ("sched" -> "repro.sim.engine").
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: from-import binding -> (source module, original name).
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    module_globals: Dict[str, GlobalBinding] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    stream_sites: List[StreamSite] = field(default_factory=list)


class ProgramIndex:
    """The assembled whole-program view (see module docstring)."""

    def __init__(self, root: str, modules: Dict[str, ModuleInfo]):
        self.root = root
        self.modules = modules
        self._by_path = {info.path: info for info in modules.values()}
        #: caller qualname -> sorted unique callee qualnames.
        self.call_graph: Dict[str, Tuple[str, ...]] = {}
        #: Qualnames registered as scheduler callbacks.
        self.event_roots: Tuple[str, ...] = ()
        #: Event roots plus everything they transitively call.
        self.event_reachable: frozenset = frozenset()
        self._finalize()

    # -- assembly ---------------------------------------------------------

    def _finalize(self) -> None:
        graph: Dict[str, Set[str]] = {}
        roots: Set[str] = set()
        for module_name in sorted(self.modules):
            info = self.modules[module_name]
            for func in self._all_functions(info):
                graph[func.qualname] = set(func.calls)
                roots.update(func.schedules)
        self.call_graph = {
            qualname: tuple(sorted(callees))
            for qualname, callees in sorted(graph.items())
        }
        self.event_roots = tuple(sorted(roots))
        reachable: Set[str] = set()
        frontier = [r for r in self.event_roots if r in graph]
        reachable.update(self.event_roots)
        while frontier:
            current = frontier.pop()
            for callee in graph.get(current, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        self.event_reachable = frozenset(reachable)

    @staticmethod
    def _all_functions(info: ModuleInfo) -> List[FunctionInfo]:
        funcs = [info.functions[n] for n in sorted(info.functions)]
        for cls_name in sorted(info.classes):
            cls = info.classes[cls_name]
            funcs.extend(cls.methods[m] for m in sorted(cls.methods))
        return funcs

    # -- queries ----------------------------------------------------------

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        """The module parsed from ``path``, if it is part of the index."""
        return self._by_path.get(os.path.abspath(path))

    def import_graph(self) -> Dict[str, Tuple[str, ...]]:
        """module -> sorted in-tree modules it imports."""
        graph: Dict[str, Tuple[str, ...]] = {}
        for name in sorted(self.modules):
            info = self.modules[name]
            targets: Set[str] = set()
            for target in info.import_aliases.values():
                if target in self.modules:
                    targets.add(target)
            for source_mod, _orig in info.from_imports.values():
                if source_mod in self.modules:
                    targets.add(source_mod)
            graph[name] = tuple(sorted(targets))
        return graph

    def all_stream_sites(self) -> List[StreamSite]:
        """Every substream call site, in deterministic order."""
        sites: List[StreamSite] = []
        for name in sorted(self.modules):
            sites.extend(self.modules[name].stream_sites)
        return sites

    def stats(self) -> Dict[str, int]:
        """Size counters for the JSON report's ``program`` section."""
        call_edges = sum(len(v) for v in self.call_graph.values())
        import_edges = sum(len(v) for v in self.import_graph().values())
        return {
            "modules": len(self.modules),
            "functions": len(self.call_graph),
            "call_edges": call_edges,
            "import_edges": import_edges,
            "event_roots": len(self.event_roots),
            "event_reachable": len(self.event_reachable),
            "stream_sites": len(self.all_stream_sites()),
        }


# ---------------------------------------------------------------------------
# construction


def _module_name(root: str, path: str) -> str:
    """Dotted module name of ``path`` relative to the package root.

    ``root`` is the package directory itself (``.../src/repro``), so
    names are rooted at its basename: ``repro.sim.engine``.
    """
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    parts = [os.path.basename(root)] + [p for p in rel.split("/") if p]
    last = parts[-1]
    if last.endswith(".py"):
        parts[-1] = last[: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _ModuleVisitor:
    """Single pass over one module tree filling a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo):
        self.info = info

    def visit(self) -> None:
        for node in self.info.tree.body:
            self._visit_top(node)

    # -- top level --------------------------------------------------------

    def _visit_top(self, node: ast.stmt) -> None:
        info = self.info
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.import_aliases[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds only `a`; dotted resolution
                    # through the chain is out of scope for the
                    # approximate call graph.
                    top = alias.name.split(".")[0]
                    info.import_aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.from_imports[alias.asname or alias.name] = (
                    node.module,
                    alias.name,
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._record_binding(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = FunctionInfo(
                qualname=f"{info.name}:{node.name}",
                name=node.name,
                lineno=node.lineno,
            )
            info.functions[node.name] = func
            self._scan_body(node, func, class_name=None)
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                name=node.name,
                qualname=f"{info.name}:{node.name}",
                lineno=node.lineno,
            )
            info.classes[node.name] = cls
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        qualname=f"{info.name}:{node.name}.{stmt.name}",
                        name=stmt.name,
                        lineno=stmt.lineno,
                        class_name=node.name,
                    )
                    cls.methods[stmt.name] = method
                    self._scan_body(stmt, method, class_name=node.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and optional-dependency imports.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._visit_top(child)

    def _record_binding(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value: Optional[ast.AST] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target]
            value = node.value
        else:
            return
        for target in targets:
            if target.id == "__all__":
                continue
            self.info.module_globals[target.id] = GlobalBinding(
                name=target.id,
                lineno=node.lineno,
                col=node.col_offset,
                kind=value_kind(value),
            )

    # -- function bodies --------------------------------------------------

    def _scan_body(
        self,
        node: ast.AST,
        func: FunctionInfo,
        class_name: Optional[str],
    ) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._record_call(child, func, class_name)

    def _record_call(
        self, node: ast.Call, func: FunctionInfo, class_name: Optional[str]
    ) -> None:
        info = self.info
        target = self._resolve_callable(node.func, class_name)
        if target is not None:
            func.calls.append(target)
        # Scheduler callback registration: schedule(delay, fn, *args).
        callee_attr = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else (node.func.id if isinstance(node.func, ast.Name) else None)
        )
        if callee_attr == "schedule" and len(node.args) >= 2:
            callback = self._resolve_callable(node.args[1], class_name)
            if callback is not None:
                func.schedules.append(callback)
        # RNG substream sites with a literal name.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("stream", "fork")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            info.stream_sites.append(
                StreamSite(
                    name=node.args[0].value,
                    module=info.name,
                    qualname=func.qualname,
                    lineno=node.lineno,
                    col=node.col_offset,
                    method=node.func.attr,
                )
            )

    def _resolve_callable(
        self, node: ast.AST, class_name: Optional[str]
    ) -> Optional[str]:
        """Best-effort qualname of a callable expression (in-tree only)."""
        info = self.info
        if isinstance(node, ast.Name):
            name = node.id
            if name in info.functions:
                return f"{info.name}:{name}"
            if name in info.from_imports:
                source_mod, orig = info.from_imports[name]
                return f"{source_mod}:{orig}"
            if class_name is not None:
                methods = info.classes[class_name].methods
                if name in methods:
                    return f"{info.name}:{class_name}.{name}"
            return None
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                root = node.value.id
                if root == "self" and class_name is not None:
                    return f"{info.name}:{class_name}.{node.attr}"
                if root in info.import_aliases:
                    return f"{info.import_aliases[root]}:{node.attr}"
                if root in info.from_imports:
                    source_mod, orig = info.from_imports[root]
                    return f"{source_mod}.{orig}:{node.attr}"
        return None


def iter_module_paths(root: str) -> List[str]:
    """Sorted absolute paths of every ``.py`` file under ``root``."""
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths.extend(
            os.path.abspath(os.path.join(dirpath, name))
            for name in sorted(filenames)
            if name.endswith(".py")
        )
    return sorted(set(paths))


def build_module(root: str, path: str, source: str) -> ModuleInfo:
    """Parse one module and fill its :class:`ModuleInfo`.

    Raises ``SyntaxError`` when the file does not parse; the runner
    converts that into a ``syntax-error`` finding.
    """
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(
        name=_module_name(root, path),
        path=os.path.abspath(path),
        source=source,
        tree=tree,
    )
    _ModuleVisitor(info).visit()
    return info


def build_program(root: str) -> ProgramIndex:
    """Index every parseable module under ``root``.

    Unreadable or syntactically invalid files are skipped here -- the
    runner reports them per file -- so the program passes always see a
    consistent (if partial) view.
    """
    modules: Dict[str, ModuleInfo] = {}
    for path in iter_module_paths(root):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            info = build_module(root, path, source)
        except (OSError, SyntaxError):
            continue
        modules[info.name] = info
    return ProgramIndex(root=os.path.abspath(root), modules=modules)
