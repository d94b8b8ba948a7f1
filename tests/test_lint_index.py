"""Tests for the per-module index every whole-tree lint pass reads.

``load_module`` walks each tree once into a :class:`ModuleIndex`; these
tests pin that the index holds exactly what the walks it replaced would
see, less expression contexts and operators, on every module of
``src/repro`` and of the lint fixtures, and that
the syntactic rules and the taint-config scan no longer call
``ast.walk`` at all.
"""

import ast
import os
from collections import Counter

import pytest

from repro.analysis import ALL_RULES, LintContext, load_module
from repro.analysis.callgraph import build_callgraph
from repro.analysis.flow import load_taint_config
from repro.analysis.loader import index_tree, iter_python_files
from repro.analysis.rules import _walk_no_lambda

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro")
FIXTURES = os.path.join(HERE, "fixtures", "lint")


def _modules(paths):
    loaded = [load_module(p) for p in iter_python_files(paths)]
    return [module for module, _err in loaded if module is not None]


MODULES = _modules([SRC_REPRO, FIXTURES])


def _recursive_functions(tree):
    """Every def with its class name, by the recursive scope walk."""
    def scope(node, class_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, class_name
                yield from scope(child, class_name)
            elif isinstance(child, ast.ClassDef):
                yield from scope(child, child.name)
            else:
                yield from scope(child, class_name)

    return list(scope(tree, None))


#: Leaf singletons the index leaves out: rules read them only as
#: ``node.ctx`` / ``node.op`` attributes.
UNINDEXED = (ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)


def _ids(nodes):
    return [id(n) for n in nodes if not isinstance(n, UNINDEXED)]


def test_the_index_covers_every_module():
    assert len(MODULES) > 100  # src/repro alone is over a hundred files


@pytest.mark.parametrize("module", MODULES, ids=lambda m: os.path.relpath(m.path, HERE))
def test_index_matches_the_walks_it_replaces(module):
    index = module.index
    assert [(id(f), c) for f, c in index.functions] == [
        (id(f), c) for f, c in _recursive_functions(module.tree)
    ]
    assert set(index.own) == {f for f, _ in index.functions}
    for func in index.own:
        assert Counter(_ids(index.own[func])) == Counter(
            _ids(_walk_no_lambda(func))
        ), func.name
    walked: "dict[type, list[int]]" = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, UNINDEXED):
            walked.setdefault(type(node), []).append(id(node))
    assert {k: _ids(v) for k, v in index.nodes.items()} == walked
    indexed = [n for group in index.nodes.values() for n in group]
    indexed += [n for own in index.own.values() for n in own]
    assert not [n for n in indexed if isinstance(n, UNINDEXED)]
    assert _ids(index.imports) == [
        id(n) for n in ast.walk(module.tree)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    ]


def test_alias_table_spells_out_dotted_targets():
    index = index_tree(ast.parse(
        "import numpy as np\n"
        "import numpy.random as npr\n"
        "import os.path\n"
        "from numpy import random\n"
        "from time import time as now\n"
        "from . import sibling\n"
        "from ..pkg import helper as h\n"
        "from star import *\n"
        "def f():\n"
        "    import json as np\n"
    ))
    assert index.aliases == {
        # The function-level import comes later in walk order and wins.
        "np": "json",
        "npr": "numpy.random",
        "os": "os",
        "random": "numpy.random",
        "now": "time.time",
        "sibling": ".sibling",
        "h": "..pkg.helper",
    }


def test_syntactic_rules_and_taint_scan_never_call_ast_walk(monkeypatch):
    """The speedup: one walk per module, in the loader, and none after."""
    modules = _modules([SRC_REPRO])
    ctx = LintContext(modules=modules, callgraph=build_callgraph(modules))
    calls = []
    real_walk = ast.walk

    def counting_walk(node):
        calls.append(node)
        return real_walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    for module in modules:
        for rule in ALL_RULES:
            rule.check(module, ctx)
    load_taint_config(modules)
    assert calls == []
