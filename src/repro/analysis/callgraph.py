"""Intra-package call-graph construction for interprocedural lint rules.

Static DP invariants are rarely confined to one function body: the PR-4
charge-after-release bug would have survived a purely local checker the
moment ``fit`` delegated its noise draws to a ``_release_counts`` helper.
This module indexes every function/method definition across the analysed
modules and resolves the call shapes that matter inside one package:

* ``name(...)``        — a module-level function in the same module, or (when
  the name is imported via ``from .x import name`` / unique package-wide) a
  function in a sibling module;
* ``self.name(...)``   — a method of the lexically enclosing class;
* ``Class.name(...)``  — an explicitly class-qualified method (same module
  first, else the unique definition package-wide);
* ``super().name(...)`` — the nearest base-class definition of ``name``,
  walked through the indexed class hierarchy (depth-bounded);
* ``pkg.mod.fn(...)``  — a module-qualified function, resolved through the
  importing module's ``import pkg.mod [as m]`` / ``from pkg import mod``
  alias table against the dotted names of the analysed files.

Resolution is deliberately conservative: calls on arbitrary objects
(``mech.release(...)``, ``topk.select(...)``) are *not* resolved here —
rules classify those by name heuristics instead — and an ambiguous bare
name (defined in several sibling modules, none imported) resolves to
nothing rather than to a guess.  Rules follow resolved edges a bounded
number of hops (see ``rules.py``); the flow engine (``analysis/flow``)
iterates summaries over the full graph to a fixpoint.
"""

from __future__ import annotations

import ast
import os

from dataclasses import dataclass, field

from .loader import Module

#: How far up a class hierarchy ``super().m(...)`` resolution will walk.
_MRO_DEPTH = 8


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, with enough context to recurse."""

    module: Module
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    qualname: str  # "func" or "Class.method"
    class_name: "str | None"

    @property
    def name(self) -> str:
        return self.node.name


def module_dotted_suffixes(path: str) -> "list[str]":
    """Every dotted name a file path can be imported as.

    ``src/repro/privacy/budget.py`` -> ``["budget", "privacy.budget",
    "repro.privacy.budget", "src.repro.privacy.budget"]`` — callers match
    the longest suffix they know, so the graph never needs to guess where
    the package root sits on disk.
    """
    norm = path.replace("\\", "/")
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return [".".join(parts[i:]) for i in range(len(parts) - 1, -1, -1)]


@dataclass
class CallGraph:
    """Index of definitions plus the import tables needed to resolve calls."""

    #: (module path, qualname) -> definition
    functions: "dict[tuple[str, str], FunctionInfo]" = field(default_factory=dict)
    #: bare name -> every definition with that name (any module, incl. methods)
    by_name: "dict[str, list[FunctionInfo]]" = field(default_factory=dict)
    #: module path -> {local name: imported function name} for
    #: ``from <anywhere> import name [as alias]`` statements.
    imports: "dict[str, dict[str, str]]" = field(default_factory=dict)
    #: module path -> {local name: dotted module name} for
    #: ``import pkg.mod [as m]`` / ``from pkg import mod`` statements.
    module_aliases: "dict[str, dict[str, str]]" = field(default_factory=dict)
    #: dotted module suffix -> path (None when ambiguous across files).
    modules_by_dotted: "dict[str, str | None]" = field(default_factory=dict)
    #: class name -> [(module path, ClassDef)] for every class definition.
    classes: "dict[str, list[tuple[str, ast.ClassDef]]]" = field(
        default_factory=dict
    )
    #: (module path, class name) -> base-class name expressions (as strings).
    class_bases: "dict[tuple[str, str], tuple[str, ...]]" = field(
        default_factory=dict
    )

    def add(self, info: FunctionInfo) -> None:
        self.functions[(info.module.path, info.qualname)] = info
        self.by_name.setdefault(info.name, []).append(info)

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #

    def resolve(
        self,
        call: ast.Call,
        module: Module,
        class_name: "str | None",
    ) -> "FunctionInfo | None":
        """Resolve a call node to a definition, or ``None`` when unknown."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(func.id, module)
        if isinstance(func, ast.Attribute):
            value = func.value
            # self.method(...)
            if (
                isinstance(value, ast.Name)
                and value.id == "self"
                and class_name is not None
            ):
                info = self.functions.get(
                    (module.path, f"{class_name}.{func.attr}")
                )
                if info is not None:
                    return info
                # Inherited: fall back to the base-class chain.
                return self._resolve_in_bases(
                    module.path, class_name, func.attr, _MRO_DEPTH
                )
            # super().method(...)
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"
                and class_name is not None
            ):
                return self._resolve_in_bases(
                    module.path, class_name, func.attr, _MRO_DEPTH
                )
            # ClassName.method(...)
            if isinstance(value, ast.Name) and value.id in self.classes:
                return self._resolve_class_method(value.id, func.attr, module)
            # pkg.mod.fn(...) via the importing module's alias table.
            chain = _name_chain(func)
            if len(chain) >= 2:
                return self._resolve_module_qualified(chain, module)
        return None

    def _resolve_bare(
        self, name: str, module: Module
    ) -> "FunctionInfo | None":
        # Same module first.
        info = self.functions.get((module.path, name))
        if info is not None:
            return info
        # An explicitly imported name, or a package-wide unique one.
        target = self.imports.get(module.path, {}).get(name, name)
        candidates = [
            f for f in self.by_name.get(target, ()) if f.class_name is None
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _resolve_class_method(
        self, cls: str, method: str, module: Module
    ) -> "FunctionInfo | None":
        info = self.functions.get((module.path, f"{cls}.{method}"))
        if info is not None:
            return info
        candidates = [
            f
            for f in self.by_name.get(method, ())
            if f.class_name == cls
        ]
        if len(candidates) == 1:
            return candidates[0]
        # Defined on a base of the (unique) class definition.
        defs = self.classes.get(cls, ())
        if len(defs) == 1:
            return self._resolve_in_bases(defs[0][0], cls, method, _MRO_DEPTH)
        return None

    def _resolve_in_bases(
        self, path: str, cls: str, method: str, depth: int
    ) -> "FunctionInfo | None":
        if depth <= 0:
            return None
        for base in self.class_bases.get((path, cls), ()):
            base_name = base.rsplit(".", 1)[-1]
            defs = self.classes.get(base_name, ())
            # Same-module base first, else a package-wide unique definition.
            located = [d for d in defs if d[0] == path] or (
                defs if len(defs) == 1 else ()
            )
            for base_path, _node in located:
                info = self.functions.get((base_path, f"{base_name}.{method}"))
                if info is not None:
                    return info
                info = self._resolve_in_bases(
                    base_path, base_name, method, depth - 1
                )
                if info is not None:
                    return info
        return None

    def _resolve_module_qualified(
        self, chain: "list[str]", module: Module
    ) -> "FunctionInfo | None":
        aliases = self.module_aliases.get(module.path, {})
        fn = chain[-1]
        qualifier = chain[:-1]
        head = aliases.get(qualifier[0])
        if head is not None:
            # `import a.b.c as m` binds only `m`; `import a.b.c` binds `a`
            # and usage spells the full path — expand the head alias.
            dotted = ".".join([head] + qualifier[1:])
        else:
            dotted = ".".join(qualifier)
        path = self.modules_by_dotted.get(dotted)
        if path is None:
            return None
        return self.functions.get((path, fn))


def _name_chain(node: ast.AST) -> "list[str]":
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _base_name_str(node: ast.AST) -> "str | None":
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        chain = _name_chain(node)
        return ".".join(chain) if chain else None
    return None


def build_callgraph(modules: "list[Module]") -> CallGraph:
    graph = CallGraph()
    # Dotted-name index first, so alias tables can be checked against it.
    for module in modules:
        for dotted in module_dotted_suffixes(module.path):
            if dotted in graph.modules_by_dotted and \
                    graph.modules_by_dotted[dotted] != module.path:
                graph.modules_by_dotted[dotted] = None  # ambiguous suffix
            else:
                graph.modules_by_dotted[dotted] = module.path
    known_paths = {os.path.normpath(m.path): m.path for m in modules}
    for module in modules:
        table: dict[str, str] = {}
        mod_table: dict[str, str] = {}
        pkg_dir = os.path.dirname(module.path).replace("\\", "/")
        for node in module.index.imports:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = alias.name
                    # `from pkg import mod` / `from . import mod`: the bound
                    # name may itself be a module of the analysed set.
                    if node.level and not node.module:
                        sibling = known_paths.get(
                            os.path.normpath(f"{pkg_dir}/{alias.name}.py")
                        )
                        if sibling is not None:
                            mod_table[alias.asname or alias.name] = \
                                module_dotted_suffixes(sibling)[-1]
                    elif node.module:
                        dotted = f"{node.module}.{alias.name}"
                        if graph.modules_by_dotted.get(dotted):
                            mod_table[alias.asname or alias.name] = dotted
            else:
                for alias in node.names:
                    if alias.asname is not None:
                        mod_table[alias.asname] = alias.name
                    else:
                        # `import a.b.c` binds `a`; usage spells a.b.c.fn.
                        head = alias.name.split(".")[0]
                        mod_table.setdefault(head, head)
        graph.imports[module.path] = table
        graph.module_aliases[module.path] = mod_table
        for node in module.tree.body:
            _index_scope(graph, module, node, class_name=None)
    return graph


def _index_scope(
    graph: CallGraph, module: Module, node: ast.AST, class_name: "str | None"
) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qual = f"{class_name}.{node.name}" if class_name else node.name
        graph.add(FunctionInfo(module, node, qual, class_name))
        # Nested defs are not indexed: they are closures, not package API,
        # and resolving them would need scope analysis the rules don't.
    elif isinstance(node, ast.ClassDef):
        graph.classes.setdefault(node.name, []).append((module.path, node))
        bases = tuple(
            b for b in (_base_name_str(base) for base in node.bases)
            if b is not None
        )
        graph.class_bases[(module.path, node.name)] = bases
        for child in node.body:
            _index_scope(graph, module, child, class_name=node.name)
