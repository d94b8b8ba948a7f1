"""Diff-scoped linting: changed files plus their call-graph dependents.

``repro lint --diff <base-ref>`` asks git which ``*.py`` files changed
since ``base-ref``, then widens that set with every analysed module that
can *reach* a changed module through the intra-package call graph or an
import edge — the modules whose findings could change because a callee
changed.  The widened set is what gets linted; everything else is skipped.

Without a usable git (no repository, unknown ref, no binary), the scope
silently falls back to the full tree — a diff run must never be *weaker*
than a full run because the environment is odd; it may only be faster.
The returned note says which of the two happened so the CLI can surface
it on stderr.
"""

from __future__ import annotations

import ast
import os
import subprocess

from .callgraph import build_callgraph
from .loader import iter_python_files, load_module


def _git(args: "list[str]", cwd: str) -> "str | None":
    try:
        proc = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def changed_python_files(base_ref: str, cwd: str = ".") -> "set[str] | None":
    """Absolute paths of ``*.py`` files changed vs ``base_ref`` (or None).

    Includes uncommitted changes (``git diff`` against the ref covers both
    committed and working-tree edits).  ``None`` means git could not
    answer — callers fall back to the full tree.
    """
    top = _git(["rev-parse", "--show-toplevel"], cwd)
    if top is None:
        return None
    root = top.strip()
    out = _git(["diff", "--name-only", base_ref, "--"], cwd)
    if out is None:
        return None
    return {
        os.path.abspath(os.path.join(root, line.strip()))
        for line in out.splitlines()
        if line.strip().endswith(".py")
    }


def _module_dependencies(modules, graph) -> "dict[str, set[str]]":
    """caller module path -> callee/imported module paths."""
    deps: "dict[str, set[str]]" = {}
    for mod in modules:
        index = mod.index
        # A def's own calls resolve in its class; every other call (module
        # and class-body code, lambda bodies) resolves outside any class.
        sites = [
            (node, class_name)
            for func, class_name in index.functions
            for node in index.own[func]
            if node.__class__ is ast.Call
        ]
        owned = {id(node) for node, _ in sites}
        sites += [
            (node, None) for node in index.of(ast.Call) if id(node) not in owned
        ]
        for node, class_name in sites:
            callee = graph.resolve(node, mod, class_name)
            if callee is not None and callee.module.path != mod.path:
                deps.setdefault(mod.path, set()).add(callee.module.path)
    # Import edges catch dependencies the call resolver is conservative
    # about (constants, classes, decorators).
    for path, aliases in graph.module_aliases.items():
        for dotted in aliases.values():
            target = graph.modules_by_dotted.get(dotted)
            if target is not None and target != path:
                deps.setdefault(path, set()).add(target)
    return deps


def select_diff_paths(
    paths: "list[str]", base_ref: str, cwd: str = "."
) -> "tuple[list[str], str]":
    """The file subset to lint for ``--diff base_ref``, plus a scope note."""
    files = iter_python_files(paths)
    changed = changed_python_files(base_ref, cwd)
    if changed is None:
        return files, (
            f"--diff {base_ref}: git unavailable or unknown ref — "
            "falling back to the full tree"
        )

    modules = []
    for path in files:
        module, _err = load_module(path)
        if module is not None:
            modules.append(module)
    graph = build_callgraph(modules)
    deps = _module_dependencies(modules, graph)
    dependents: "dict[str, set[str]]" = {}
    for src, dsts in deps.items():
        for dst in dsts:
            dependents.setdefault(dst, set()).add(src)

    selected = {p for p in files if os.path.abspath(p) in changed}
    frontier = list(selected)
    while frontier:
        cur = frontier.pop()
        for dep in dependents.get(cur, ()):
            if dep not in selected:
                selected.add(dep)
                frontier.append(dep)

    chosen = sorted(selected)
    return chosen, (
        f"--diff {base_ref}: {len(chosen)}/{len(files)} files in scope "
        "(changed + call-graph dependents)"
    )
