"""Flow-sensitive and whole-program determinism and state-safety rules.

This is the v2 analyzer layer on top of PR 1's per-file rule runner.
Three rule families live here (plus the two rules migrated off the
single-pass engine, ``global-random`` and ``set-iteration``, which keep
their ids, messages, and suppression behaviour bit-for-bit):

**RNG substream discipline** -- every draw must be reachable from a
named :class:`repro.sim.rng.RngStreams` substream:

* ``global-random`` (migrated): raw ``random.*`` / ``numpy.random.*``.
* ``rng-unowned-generator``: ``random.Random(...)`` constructed outside
  ``sim/rng.py`` bypasses the named-substream discipline.
* ``rng-substream-aliasing`` (program): the same substream name
  requested from more than one function aliases one generator across
  phases -- adding a draw in one phase silently perturbs the other.
* ``rng-foreign-substream`` (program): the ``faults.*`` namespace is
  reserved for :mod:`repro.faults` (its streams must stay decoupled so
  fault-free hashes survive), and observability code must not own
  substreams at all.
* ``rng-obs-hook-draw``: a draw lexically inside an ``if ...tracer:``
  block or a ``with ...span(...):`` body (or anywhere in ``repro.obs``)
  would make trace-enabled runs diverge from fault-free hashes.

**Module-level state safety** -- state that outlives one run leaks
into the next run in the same process (serial sweeps, ``--jobs`` pool
workers):

* ``class-mutable-default``: a class body binds a mutable value, one
  object shared by every instance.
* ``global-state-mutation`` (program): function-scope mutation of a
  module-level global from event-handler code, from another module, or
  by ``global`` rebinding of a name bound to a constant at import.

**Determinism hazards v2**:

* ``set-iteration`` (migrated): hash-order iteration of set literals.
* ``unsorted-accumulation``: flow-sensitive version -- a *local bound
  to a set-typed value* iterated into an order-sensitive accumulation
  (float ``+=``, ``list.append``) leaks hash order into results.
* ``unsorted-serialization``: ``json.dumps``/``json.dump`` without
  ``sort_keys=True`` outside the canonical encoders.
* ``mutable-default-arg``: the classic shared-default defect.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.base import (
    Rule,
    dotted_name,
    is_set_expression,
)
from repro.lint.findings import Finding, RuleContext
from repro.lint.program import (
    GlobalBinding,
    ModuleInfo,
    ProgramIndex,
    value_kind,
)

# ---------------------------------------------------------------------------
# migrated rule (a): module-global randomness  [formerly ast_rules]


#: ``from random import X`` bindings that are safe: classes producing an
#: *owned* generator, not draws from the hidden module-global instance.
_SAFE_RANDOM_NAMES = {"Random"}

#: ``numpy.random`` attributes that construct independent generators
#: rather than touching the legacy global state.
_SAFE_NUMPY_RANDOM = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
}


class GlobalRandomRule(Rule):
    """Migrated from the PR 1 single-pass engine; findings unchanged."""

    rule_id = "global-random"
    severity = "high"
    description = (
        "module-global random state (random.*, numpy.random.*) outside sim/rng.py; "
        "use RngStreams or an injected random.Random"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        if ctx.is_rng_module:
            return []
        findings: List[Finding] = []
        # alias -> canonical module ("random" | "numpy.random" | "numpy")
        module_aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        module_aliases[alias.asname or "random"] = "random"
                    elif alias.name == "numpy":
                        module_aliases[alias.asname or "numpy"] = "numpy"
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            module_aliases[alias.asname] = "numpy.random"
                        else:
                            module_aliases["numpy"] = "numpy"
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SAFE_RANDOM_NAMES:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"'from random import {alias.name}' binds the "
                                    "module-global RNG; inject a random.Random "
                                    "(from repro.sim.rng.RngStreams) instead",
                                )
                            )
                elif node.module in ("numpy", "numpy.random"):
                    for alias in node.names:
                        if node.module == "numpy" and alias.name == "random":
                            module_aliases[alias.asname or "random"] = "numpy.random"
                        elif (
                            node.module == "numpy.random"
                            and alias.name not in _SAFE_NUMPY_RANDOM
                        ):
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"'from numpy.random import {alias.name}' draws from "
                                    "numpy's global state; use default_rng(seed)",
                                )
                            )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            root, _, rest = dotted.partition(".")
            canonical = module_aliases.get(root)
            if canonical is None:
                continue
            full = canonical + "." + rest if rest else canonical
            if full.startswith("random."):
                attr = full.split(".", 1)[1]
                if "." not in attr and attr not in _SAFE_RANDOM_NAMES:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"'random.{attr}' uses the module-global RNG; route "
                            "randomness through RngStreams or an injected Random",
                        )
                    )
            elif full.startswith("numpy.random."):
                attr = full.split(".", 2)[2]
                if "." not in attr and attr not in _SAFE_NUMPY_RANDOM:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"'numpy.random.{attr}' uses numpy's global RNG state; "
                            "use numpy.random.default_rng(seed)",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# migrated rule (c): hash-order iteration over set expressions


#: Calls whose argument order the caller observes (order-sensitive sinks).
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: RNG methods whose outcome depends on the order of the passed sequence.
_ORDER_SENSITIVE_METHODS = {"choice", "choices", "sample", "shuffle"}


class SetIterationRule(Rule):
    """Migrated from the PR 1 single-pass engine; findings unchanged."""

    rule_id = "set-iteration"
    severity = "high"
    description = (
        "iteration over a set/frozenset feeds hash-order into downstream "
        "logic; wrap in sorted(...) for a deterministic sequence"
    )

    def _msg(self, how: str) -> str:
        return (
            f"set/frozenset {how} exposes nondeterministic hash order; "
            "wrap the set in sorted(...)"
        )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expression(node.iter):
                    findings.append(
                        self.finding(ctx, node.iter, self._msg("iterated by a for loop"))
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if is_set_expression(generator.iter):
                        findings.append(
                            self.finding(
                                ctx,
                                generator.iter,
                                self._msg("iterated by a comprehension"),
                            )
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_BUILTINS
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node.args[0],
                            self._msg(f"passed to {node.func.id}()"),
                        )
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_METHODS
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node.args[0],
                            self._msg(f"passed to .{node.func.attr}()"),
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# determinism hazards v2


class MutableDefaultArgRule(Rule):
    rule_id = "mutable-default-arg"
    severity = "high"
    description = (
        "mutable default argument is shared across every call; "
        "default to None"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: List[ast.AST] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if value_kind(default) == "mutable":
                    findings.append(
                        self.finding(
                            ctx,
                            default,
                            f"mutable default in '{node.name}' is evaluated "
                            "once and shared by every call; use None and "
                            "construct inside the body",
                        )
                    )
        return findings


def _is_settyped(node: ast.AST, settyped: Set[str]) -> bool:
    """Flow-aware set-typedness: literals, ``set(...)``, known locals,
    and unions (``|``) of set-typed operands."""
    if is_set_expression(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in settyped
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_settyped(node.left, settyped) or _is_settyped(
            node.right, settyped
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("union", "intersection", "difference",
                              "symmetric_difference", "copy"):
            return _is_settyped(node.func.value, settyped)
    return False


def _loop_accumulates(body: Sequence[ast.stmt]) -> Optional[ast.AST]:
    """First order-sensitive accumulation statement in a loop body."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
            ):
                return node
    return None


class UnsortedAccumulationRule(Rule):
    rule_id = "unsorted-accumulation"
    severity = "high"
    description = (
        "a local bound to a set-typed value is iterated into an "
        "order-sensitive accumulation (float +=, list.append); float "
        "summation and list order then depend on hash order -- iterate "
        "sorted(...) instead"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_block(node.body, set(), ctx, findings)
        return findings

    def _check_block(
        self,
        body: Sequence[ast.stmt],
        settyped: Set[str],
        ctx: RuleContext,
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                name = stmt.targets[0].id
                if _is_settyped(stmt.value, settyped):
                    settyped.add(name)
                else:
                    settyped.discard(name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                if stmt.value is not None and _is_settyped(stmt.value, settyped):
                    settyped.add(name)
                else:
                    settyped.discard(name)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if (
                    isinstance(stmt.iter, ast.Name)
                    and stmt.iter.id in settyped
                ):
                    sink = _loop_accumulates(stmt.body)
                    if sink is not None:
                        findings.append(
                            self.finding(
                                ctx,
                                stmt.iter,
                                f"local '{stmt.iter.id}' holds a set here; "
                                "iterating it into an order-sensitive "
                                "accumulation leaks hash order into results "
                                f"-- iterate sorted({stmt.iter.id}) instead",
                            )
                        )
                self._check_block(stmt.body, settyped, ctx, findings)
                self._check_block(stmt.orelse, settyped, ctx, findings)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._check_block(stmt.body, set(settyped), ctx, findings)
                self._check_block(stmt.orelse, set(settyped), ctx, findings)
            elif isinstance(stmt, ast.With):
                self._check_block(stmt.body, settyped, ctx, findings)
            elif isinstance(stmt, ast.Try):
                self._check_block(stmt.body, set(settyped), ctx, findings)
                for handler in stmt.handlers:
                    self._check_block(handler.body, set(settyped), ctx, findings)
                self._check_block(stmt.finalbody, set(settyped), ctx, findings)


class UnsortedSerializationRule(Rule):
    rule_id = "unsorted-serialization"
    severity = "medium"
    description = (
        "json.dumps/json.dump without sort_keys=True serializes in "
        "insertion order; canonical artifacts must sort keys so two "
        "builders of the same payload emit identical bytes"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        # Project-scoped: only fires on tree runs (the runner sets
        # module_name), so ad-hoc lint_source snippets and scratch files
        # are not held to the canonical-bytes policy.
        if ctx.module_name is None or ctx.is_test_module:
            return []
        json_aliases = {"json"} if self._imports_json(tree) else set()
        if not json_aliases:
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or "." not in dotted:
                continue
            root, rest = dotted.split(".", 1)
            if root not in json_aliases or rest not in ("dumps", "dump"):
                continue
            if not self._sorts_keys(node):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'{dotted}(...)' without sort_keys=True emits "
                        "insertion-ordered keys; pass sort_keys=True for "
                        "canonical bytes",
                    )
                )
        return findings

    @staticmethod
    def _imports_json(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "json" and alias.asname is None:
                        return True
        return False

    @staticmethod
    def _sorts_keys(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                return not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                )
        return False


# ---------------------------------------------------------------------------
# RNG substream discipline (per-file parts)


class RngUnownedGeneratorRule(Rule):
    rule_id = "rng-unowned-generator"
    severity = "high"
    description = (
        "random.Random(...) constructed outside sim/rng.py bypasses the "
        "named-substream discipline; derive streams via "
        "RngStreams.stream/fork so draws stay decoupled"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        # Project-scoped (see UnsortedSerializationRule): `rng =
        # random.Random(7)` in a scratch snippet is legitimate DI style;
        # inside the tree every generator must come from RngStreams.
        if ctx.module_name is None or ctx.is_rng_module or ctx.is_test_module:
            return []
        findings: List[Finding] = []
        from_random = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "random"
            for alias in node.names
            if alias.name == "Random"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted == "random.Random" or (dotted in from_random):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "'Random(...)' constructs an unnamed generator; use "
                        "RngStreams.stream(name) so the draw sequence is "
                        "owned by a named substream",
                    )
                )
        return findings


#: Methods that consume entropy from a ``random.Random``-like object.
_DRAW_METHODS = frozenset(
    (
        "random",
        "uniform",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "triangular",
        "getrandbits",
    )
)


def _receiver_is_rngish(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    dotted = dotted_name(node.func.value)
    if dotted is None:
        return False
    lowered = dotted.lower()
    return "rng" in lowered or lowered.split(".")[-1] in ("random", "randoms")


def _mentions_tracer(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "tracer" in child.id.lower():
            return True
        if isinstance(child, ast.Attribute) and "tracer" in child.attr.lower():
            return True
    return False


class RngObsHookDrawRule(Rule):
    rule_id = "rng-obs-hook-draw"
    severity = "high"
    description = (
        "an RNG draw inside an observability hook (if ...tracer: block, "
        "with ...span(...) body, or anywhere in repro.obs) makes traced "
        "runs diverge from fault-free hashes; hoist the draw out of the "
        "hook"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        in_obs_module = "/obs/" in ctx.path.replace("\\", "/")
        if in_obs_module:
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS
                    and _receiver_is_rngish(node)
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "RNG draw inside the observability layer; obs "
                            "code must be draw-free so tracing never "
                            "perturbs simulation hashes",
                        )
                    )
            return findings
        hook_bodies: List[ast.stmt] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and _mentions_tracer(node.test):
                hook_bodies.extend(node.body)
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Attribute)
                        and expr.func.attr in ("span", "begin_detached")
                    ):
                        hook_bodies.extend(node.body)
                        break
        for stmt in hook_bodies:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS
                    and _receiver_is_rngish(node)
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "RNG draw inside a tracer hook block; draws "
                            "here fire only when tracing is on, so traced "
                            "and untraced runs diverge -- hoist the draw "
                            "out of the hook",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# module-level state safety (per-file parts)


#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    (
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "setdefault",
        "sort",
        "reverse",
    )
)


def _chain_root(node: ast.AST) -> Optional[str]:
    """The base Name of an Attribute/Subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def iter_mutations(
    tree: ast.Module, names: Set[str]
) -> List[Tuple[str, ast.AST, str, Optional[str]]]:
    """(name, node, how, enclosing function name) for every mutation of
    ``names`` from *function scope* in the module.

    Module-scope statements are initialization, not mutation.  A bare
    ``name = ...`` inside a function only mutates the module global when
    the function declares ``global name``.
    """
    mutations: List[Tuple[str, ast.AST, str, Optional[str]]] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        if target.id in names and target.id in declared_global:
                            mutations.append(
                                (target.id, node, "rebinding", func.name)
                            )
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = _chain_root(target)
                        if root in names:
                            mutations.append(
                                (root, node, "item/attribute store", func.name)
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    root = _chain_root(target)
                    if root in names:
                        mutations.append((root, node, "deletion", func.name))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                root = _chain_root(node.func.value)
                if root in names:
                    mutations.append(
                        (root, node, f".{node.func.attr}() call", func.name)
                    )
    return mutations


class ClassMutableDefaultRule(Rule):
    rule_id = "class-mutable-default"
    severity = "high"
    description = (
        "a class body binds a mutable value; the one object is shared by "
        "every instance and carries state from run to run in one "
        "process -- use an immutable value or initialize per instance"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        if ctx.is_test_module:
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    targets = [stmt.target]
                else:
                    continue
                if value_kind(stmt.value) != "mutable":
                    continue
                for target in targets:
                    findings.append(
                        self.finding(
                            ctx,
                            stmt,
                            f"class attribute '{node.name}.{target.id}' "
                            "binds a mutable value shared by every "
                            "instance; use an immutable value or "
                            "initialize it per instance",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# program-level rules


class ProgramRule:
    """Base for rules that need the whole-program index."""

    rule_id: str = ""

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        raise NotImplementedError

    def _finding(
        self,
        module: ModuleInfo,
        lineno: int,
        col: int,
        message: str,
    ) -> Finding:
        severity, _desc = RULE_INFO[self.rule_id]
        return Finding(
            path=module.path,
            line=lineno,
            col=col,
            rule=self.rule_id,
            message=message,
            severity=severity,
        )


class RngSubstreamAliasRule(ProgramRule):
    rule_id = "rng-substream-aliasing"

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        sites_by_name: Dict[str, List] = {}
        for site in index.all_stream_sites():
            if site.method != "stream":
                continue
            sites_by_name.setdefault(site.name, []).append(site)
        findings: List[Finding] = []
        for name in sorted(sites_by_name):
            sites = sites_by_name[name]
            qualnames = sorted({site.qualname for site in sites})
            if len(qualnames) <= 1:
                continue
            others = ", ".join(qualnames)
            for site in sites:
                module = index.modules[site.module]
                findings.append(
                    self._finding(
                        module,
                        site.lineno,
                        site.col,
                        f"substream '{name}' is requested from "
                        f"{len(qualnames)} functions ({others}); aliasing "
                        "one generator across phases couples their draw "
                        "sequences -- derive distinct substream names",
                    )
                )
        return findings


class RngForeignSubstreamRule(ProgramRule):
    rule_id = "rng-foreign-substream"

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        import os as _os

        root_pkg = _os.path.basename(index.root)
        faults_pkg = f"{root_pkg}.faults"
        obs_pkg = f"{root_pkg}.obs"
        findings: List[Finding] = []
        for site in index.all_stream_sites():
            module = index.modules[site.module]
            in_faults = site.module == faults_pkg or site.module.startswith(
                faults_pkg + "."
            )
            in_obs = site.module == obs_pkg or site.module.startswith(
                obs_pkg + "."
            )
            if in_obs:
                findings.append(
                    self._finding(
                        module,
                        site.lineno,
                        site.col,
                        "observability code must not own RNG substreams; "
                        f"'{site.name}' requested in {site.qualname}",
                    )
                )
            elif in_faults and not site.name.startswith("faults."):
                findings.append(
                    self._finding(
                        module,
                        site.lineno,
                        site.col,
                        f"fault-injection substream '{site.name}' must use "
                        "the reserved 'faults.' prefix so fault-free runs "
                        "never share its sequence",
                    )
                )
            elif not in_faults and site.name.startswith("faults."):
                findings.append(
                    self._finding(
                        module,
                        site.lineno,
                        site.col,
                        f"substream '{site.name}' uses the 'faults.' "
                        "namespace reserved for repro.faults; pick a "
                        "phase-owned name",
                    )
                )
        return findings


class GlobalStateMutationRule(ProgramRule):
    """Function-scope mutation of module-level state that can leak
    between runs sharing one process.

    In-module mutation from setup code (a registry filled at import, a
    pool worker's initializer) is the sanctioned pattern and stays
    silent; the three hazards below are not.
    """

    rule_id = "global-state-mutation"

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        findings: List[Finding] = []
        for module_name in sorted(index.modules):
            findings.extend(self._check_module(index, index.modules[module_name]))
        return findings

    def _check_module(
        self, index: ProgramIndex, info: ModuleInfo
    ) -> List[Finding]:
        # Local name -> (defining module, global name): this module's own
        # globals plus from-imports of another module's global.
        local_names: Dict[str, Tuple[str, str]] = {
            name: (info.name, name) for name in info.module_globals
        }
        for bound, (source_mod, orig) in info.from_imports.items():
            source = index.modules.get(source_mod)
            if source is not None and orig in source.module_globals:
                local_names[bound] = (source_mod, orig)
        if not local_names:
            return []
        qualnames = self._function_qualnames(info)
        findings: List[Finding] = []
        for name, node, how, func_name in iter_mutations(
            info.tree, set(local_names)
        ):
            owner, orig = local_names[name]
            binding: GlobalBinding = index.modules[owner].module_globals[orig]
            qualname = qualnames.get(func_name, f"{info.name}:{func_name}")
            if qualname in index.event_reachable:
                why = (
                    f"'{qualname}' is reachable from an EventScheduler "
                    "callback, so the write happens during a run"
                )
            elif owner != info.name:
                why = f"'{qualname}' writes it from outside its defining module"
            elif how == "rebinding" and binding.kind == "immutable":
                why = (
                    f"'{qualname}' rebinds it through 'global' although "
                    "it is bound to a constant at import"
                )
            else:
                continue
            findings.append(
                self._finding(
                    info,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0),
                    f"module-level '{owner}.{orig}' is mutated ({how}): "
                    f"{why}; keep per-run state on a per-run object",
                )
            )
        return findings

    @staticmethod
    def _function_qualnames(info: ModuleInfo) -> Dict[str, str]:
        """function simple name -> qualname (best effort, last wins)."""
        table: Dict[str, str] = {}
        for fname in sorted(info.functions):
            table[fname] = info.functions[fname].qualname
        for cls_name in sorted(info.classes):
            cls = info.classes[cls_name]
            for mname in sorted(cls.methods):
                table[mname] = cls.methods[mname].qualname
        return table


# ---------------------------------------------------------------------------
# registries


#: Per-file rules added by the dataflow pass (includes the two rules
#: migrated off the single-pass engine).
FLOW_RULES: Tuple[Rule, ...] = (
    GlobalRandomRule(),
    SetIterationRule(),
    MutableDefaultArgRule(),
    UnsortedAccumulationRule(),
    UnsortedSerializationRule(),
    RngUnownedGeneratorRule(),
    RngObsHookDrawRule(),
    ClassMutableDefaultRule(),
)

#: Whole-program rules (need the ProgramIndex).
PROGRAM_RULES: Tuple[ProgramRule, ...] = (
    RngSubstreamAliasRule(),
    RngForeignSubstreamRule(),
    GlobalStateMutationRule(),
)

#: rule id -> (severity, description) for every id this module can emit.
#: The runner folds this into the global
#: registry for --list-rules / --explain.
RULE_INFO: Dict[str, Tuple[str, str]] = {
    "global-random": ("high", GlobalRandomRule.description),
    "set-iteration": ("high", SetIterationRule.description),
    "mutable-default-arg": ("high", MutableDefaultArgRule.description),
    "unsorted-accumulation": ("high", UnsortedAccumulationRule.description),
    "unsorted-serialization": ("medium", UnsortedSerializationRule.description),
    "rng-unowned-generator": ("high", RngUnownedGeneratorRule.description),
    "rng-obs-hook-draw": ("high", RngObsHookDrawRule.description),
    "rng-substream-aliasing": (
        "medium",
        "the same RngStreams substream name is requested from more than "
        "one function; aliasing one generator across phases couples "
        "their draw sequences",
    ),
    "rng-foreign-substream": (
        "high",
        "substream namespace violation: 'faults.*' is reserved for "
        "repro.faults and observability code must not own substreams",
    ),
    "class-mutable-default": ("high", ClassMutableDefaultRule.description),
    "global-state-mutation": (
        "high",
        "function-scope mutation of a module-level global from code "
        "reachable from an EventScheduler callback, from another module, "
        "or by 'global' rebinding of an import-time constant",
    ),
}


def collect_flow_findings(tree: ast.Module, ctx: RuleContext) -> List[Finding]:
    """Run every per-file dataflow rule over one parsed module."""
    findings: List[Finding] = []
    for rule in FLOW_RULES:
        findings.extend(rule.check(tree, ctx))
    return findings


def collect_program_findings(index: ProgramIndex) -> List[Finding]:
    """Run every whole-program rule over a built index."""
    findings: List[Finding] = []
    for rule in PROGRAM_RULES:
        findings.extend(rule.check_program(index))
    return findings
