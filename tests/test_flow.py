"""Tests for the flow engine (repro.analysis.flow) and its CLI surface.

Covers: per-rule fire/no-fire fixture pairs, the extended call-graph
resolution (``Class.method``, ``super().method``, ``pkg.mod.fn``), flow
traces in the v2 JSON schema (hypothesis round-trip + v1-consumer
compatibility), SARIF 2.1.0 emission, ``--diff`` scoping, suppression
names across the one rule catalogue, the ledger guard on real accountant
code, the dirty-set fixpoint against a full-round reference, and the
whole-repo flow-clean gate.
"""

import ast
import functools
import glob
import hashlib
import json
import os
import subprocess
import sys
import tarfile

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    CATALOGUE,
    JSON_SCHEMA_VERSION,
    Linter,
    RULE_NAMES,
    TraceHop,
    format_json,
    format_text,
    lint_paths,
    parse_trace,
    render_trace,
)
from repro.analysis.callgraph import build_callgraph
from repro.analysis.diff import select_diff_paths
from repro.analysis.flow import FLOW_RULE_NAMES, FlowAnalysis, load_taint_config
from repro.analysis.flow import dataflow
from repro.analysis.flow.dataflow import MAX_ROUNDS, fixpoint
from repro.analysis.loader import iter_python_files, load_module
from repro.analysis.sarif import to_sarif

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures", "lint")
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def flow_lint(paths):
    return lint_paths(paths, only=FLOW_RULE_NAMES)


def rules_fired(result) -> "set[str]":
    return {f.rule for f in result.findings}


# --------------------------------------------------------------------------- #
# per-rule fire / no-fire pairs
# --------------------------------------------------------------------------- #

FIRE_CASES = [
    ("taint_unsanitized_release_bad.py", "taint-unsanitized-release", 4),
    ("taint_error_envelope_bad.py", "taint-error-envelope", 2),
    ("taint_code_matrix_bad.py", "taint-unsanitized-release", 3),
    ("taint_recursive_params_bad.py", "taint-unsanitized-release", 2),
    ("taint_cross_module_bad", "taint-unsanitized-release", 1),
    ("lockset_unguarded_access_bad.py", "lockset-unguarded-access", 1),
    ("lockset_lambda_bad.py", "lockset-unguarded-access", 1),
    ("lockset_order_cycle_bad.py", "lockset-order-cycle", 2),
]

NO_FIRE_CASES = [
    "taint_unsanitized_release_ok.py",
    "taint_error_envelope_ok.py",
    "taint_code_matrix_ok.py",
    "lockset_unguarded_access_ok.py",
    "lockset_lambda_ok.py",
    "lockset_order_cycle_ok.py",
]


class TestFlowFixtures:
    @pytest.mark.parametrize("name,rule,min_count", FIRE_CASES)
    def test_bad_fixture_fires(self, name, rule, min_count):
        result = flow_lint([fixture(name)])
        fired = [f for f in result.findings if f.rule == rule]
        assert len(fired) >= min_count, format_text(result)
        assert rules_fired(result) == {rule}  # and nothing else

    def test_every_flow_rule_has_a_firing_fixture(self):
        """Each flow-half rule, the folded ledger rule included, fires on
        some bad fixture when only the flow rules run."""
        bad = sorted(glob.glob(os.path.join(FIXTURES, "*_bad.py")))
        assert rules_fired(flow_lint(bad)) == set(FLOW_RULE_NAMES)

    @pytest.mark.parametrize("name", NO_FIRE_CASES)
    def test_good_fixture_is_clean(self, name):
        result = flow_lint([fixture(name)])
        assert result.ok, format_text(result)
        assert not result.suppressed

    def test_envelope_leak_trace_runs_source_to_sink(self):
        """The acceptance fixture: raw count -> error envelope, with trace."""
        result = flow_lint([fixture("taint_unsanitized_release_bad.py")])
        traced = [f for f in result.findings if f.trace]
        assert traced, format_text(result)
        for f in traced:
            assert f.trace[0].note.startswith("source:")
            assert f.trace[-1].note.startswith("sink:")
            # The rendered trace parses back to the same hops.
            assert parse_trace(render_trace(f.trace)) == f.trace

    def test_interprocedural_finding_lands_at_the_caller(self):
        """`release_total` feeds raw counts to `_wrap`, which builds the
        envelope — the finding is at the call that supplied tainted data."""
        result = flow_lint([fixture("taint_unsanitized_release_bad.py")])
        hops = [
            hop
            for f in result.findings
            for hop in f.trace
            if "call: _wrap" in hop.note
        ]
        assert hops, format_text(result)

    def test_call_cycle_that_swaps_parameters_still_reports(self):
        """A param-to-sink trace that re-enters its function is kept where
        it is the only path for that parameter: the finding's trace runs
        through the whole cycle."""
        result = flow_lint([fixture("taint_recursive_params_bad.py")])
        (f,) = [f for f in result.findings if "summarize" in f.message]
        notes = [hop.note for hop in f.trace]
        assert notes[1:4] == [
            "call: describe", "call: _forward", "call: describe",
        ], format_text(result)

    def test_unguarded_inflight_names_the_guard(self):
        result = flow_lint([fixture("lockset_unguarded_access_bad.py")])
        (f,) = result.findings
        assert "_inflight" in f.message and "self._lock" in f.message
        assert f.trace and "guarded-by inferred" in f.trace[0].note

    def test_lambda_built_under_the_lock_runs_unguarded(self):
        """A lambda's body runs after the ``with`` has exited, on whichever
        thread calls it: its pop is a write with no lock held."""
        path = fixture("lockset_lambda_bad.py")
        (f,) = flow_lint([path]).findings
        assert "Pool._items" in f.message and "evict_later" in f.message
        with open(path) as fh:
            pop_line = next(i for i, line in enumerate(fh, 1) if "lambda:" in line)
        assert f.line == pop_line


# --------------------------------------------------------------------------- #
# locked-ledger-mutation on the lockset walker
# --------------------------------------------------------------------------- #

_REFUND_LOCKED = """\
        with self._lock:
            if token not in self._charges:
                raise BudgetError(f"no charge with token {token!r} to refund")
            self._remove(token)
"""


class TestLedgerGuard:
    def _ledger_findings(self, path):
        result = lint_paths([str(path)], only=("locked-ledger-mutation",))
        return [f for f in result.findings if f.rule == "locked-ledger-mutation"]

    def test_unlocked_refund_in_the_real_accountant_fires(self, tmp_path):
        with open(os.path.join(SRC, "repro", "privacy", "budget.py")) as fh:
            source = fh.read()
        original = tmp_path / "budget.py"
        original.write_text(source)
        assert self._ledger_findings(original) == []

        assert source.count(_REFUND_LOCKED) == 1
        unlocked = "".join(
            line[4:] + "\n" for line in _REFUND_LOCKED.splitlines()[1:]
        )
        mutated = tmp_path / "mutated" / "budget.py"
        mutated.parent.mkdir()
        mutated.write_text(source.replace(_REFUND_LOCKED, unlocked))
        fired = self._ledger_findings(mutated)
        # _remove loses its verified caller-holds-lock status, so its
        # ledger writes are reported.
        assert fired and all("_remove" in f.message for f in fired)

    def test_lockless_accountant_is_still_checked(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "class BareAccountant:\n"
            "    def __init__(self):\n"
            "        self._charges = []\n"
            "    def spend(self, units):\n"
            "        self._charges.append(units)\n"
        )
        (finding,) = self._ledger_findings(f)
        assert finding.line == 5

    def test_write_in_an_except_handler_is_seen(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "import threading\n"
            "class RollbackAccountant:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._spent_units = 0\n"
            "    def undo(self, units, notify):\n"
            "        try:\n"
            "            notify()\n"
            "        except Exception:\n"
            "            self._spent_units -= units\n"
        )
        (finding,) = self._ledger_findings(f)
        assert finding.line == 10


# --------------------------------------------------------------------------- #
# extended call-graph resolution (satellite 1)
# --------------------------------------------------------------------------- #

def _graph(tmp_path, files: dict):
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
    modules = []
    for path in iter_python_files([str(tmp_path)]):
        module, err = load_module(path)
        assert err is None, err
        modules.append(module)
    return modules, build_callgraph(modules)


def _resolve_first_call(graph, caller_qualname):
    for info in graph.functions.values():
        if info.qualname == caller_qualname:
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    resolved = graph.resolve(
                        node, info.module, info.class_name
                    )
                    if resolved is not None:
                        return resolved
            return None
    raise AssertionError(f"no function {caller_qualname!r} indexed")


class TestCallgraphResolution:
    def test_class_qualified_method(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "mod.py": (
                "class Helper:\n"
                "    def make(x):\n"
                "        return x\n"
                "def caller():\n"
                "    return Helper.make(1)\n"
            ),
        })
        info = _resolve_first_call(graph, "caller")
        assert info is not None and info.qualname == "Helper.make"

    def test_class_qualified_method_across_modules(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "a.py": "class Helper:\n    def make(x):\n        return x\n",
            "b.py": (
                "from a import Helper\n"
                "def caller():\n"
                "    return Helper.make(1)\n"
            ),
        })
        info = _resolve_first_call(graph, "caller")
        assert info is not None and info.qualname == "Helper.make"

    def test_super_method(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "mod.py": (
                "class Base:\n"
                "    def go(self):\n"
                "        return 1\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        return super().go()\n"
            ),
        })
        info = _resolve_first_call(graph, "Child.go")
        assert info is not None
        assert info.qualname == "Base.go" and info.class_name == "Base"

    def test_inherited_self_method_falls_back_to_base(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "mod.py": (
                "class Base:\n"
                "    def helper(self):\n"
                "        return 1\n"
                "class Child(Base):\n"
                "    def run(self):\n"
                "        return self.helper()\n"
            ),
        })
        info = _resolve_first_call(graph, "Child.run")
        assert info is not None and info.qualname == "Base.helper"

    def test_module_qualified_plain_import(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": "def fn():\n    return 1\n",
            "main.py": (
                "import pkg.util\n"
                "def caller():\n"
                "    return pkg.util.fn()\n"
            ),
        })
        info = _resolve_first_call(graph, "caller")
        assert info is not None and info.qualname == "fn"
        assert info.module.path.endswith("util.py")

    def test_module_qualified_aliased_import(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": "def fn():\n    return 1\n",
            "main.py": (
                "import pkg.util as u\n"
                "def caller():\n"
                "    return u.fn()\n"
            ),
        })
        info = _resolve_first_call(graph, "caller")
        assert info is not None and info.qualname == "fn"

    def test_module_qualified_relative_import(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": "def fn():\n    return 1\n",
            "pkg/main.py": (
                "from . import util\n"
                "def caller():\n"
                "    return util.fn()\n"
            ),
        })
        info = _resolve_first_call(graph, "caller")
        assert info is not None and info.qualname == "fn"
        assert info.module.path.endswith("util.py")

    def test_ambiguous_class_method_does_not_resolve(self, tmp_path):
        _, graph = _graph(tmp_path, {
            "a.py": "class Dup:\n    def m(x):\n        return 1\n",
            "b.py": "class Dup:\n    def m(x):\n        return 2\n",
            "c.py": "def caller():\n    return Dup.m(1)\n",
        })
        assert _resolve_first_call(graph, "caller") is None

    def test_frozen_corpus_resolution_is_pinned(self, tmp_path):
        """Exact function and resolved-call-site counts on the benchmark's
        frozen ``src/repro`` snapshot, counted as its ``_resolved_edges``
        does: a refactor that loses resolution changes these numbers."""
        archive = os.path.join(
            ROOT, "perfbench", "corpus", "src-repro-df671ee.tar.gz"
        )
        with open(archive, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == (
            "9b7f3b025eb1da5b09b5cf444a986bae5d55cb3484a4a2462107de560c0b57fb"
        )
        with tarfile.open(archive) as tar:
            tar.extractall(tmp_path, filter="data")
        modules = []
        for path in iter_python_files([str(tmp_path / "src" / "repro")]):
            module, err = load_module(path)
            assert err is None, err
            modules.append(module)
        graph = build_callgraph(modules)
        resolved = sum(
            1
            for info in graph.functions.values()
            for node in ast.walk(info.node)
            if isinstance(node, ast.Call)
            and graph.resolve(node, info.module, info.class_name) is not None
        )
        assert len(graph.functions) == 1065
        assert resolved == 1052


# --------------------------------------------------------------------------- #
# charge-before-release summaries on the shared fixpoint
# --------------------------------------------------------------------------- #

def _unrun_analysis(paths) -> FlowAnalysis:
    modules = [load_module(p)[0] for p in iter_python_files(paths)]
    return FlowAnalysis(
        modules, build_callgraph(modules), load_taint_config(modules)
    )


def _flow_analysis(paths) -> FlowAnalysis:
    analysis = _unrun_analysis(paths)
    analysis.run()
    return analysis


class TestChargeSummaries:
    def test_recursive_helpers_converge_before_the_round_cap(self):
        analysis = _flow_analysis(
            [fixture("charge_before_release_recursive.py")]
        )
        assert analysis.rounds < MAX_ROUNDS
        summaries = {q: s for (_, q), s in analysis.summaries.items()}
        assert summaries["RecursiveDrawMechanism.fit"].charges
        # _perturb recurses through _expand before it draws; that path
        # re-enters _perturb, so its own draw is the witness.
        (own,) = summaries["RecursiveDrawMechanism._perturb"].draws_first
        assert own.note == "draw: gen.laplace()"
        assert summaries["RecursiveDrawMechanism._expand"].draws_first[1:] \
            == (own,)

    def test_charge_facts_settle_on_the_whole_tree(self):
        """One more walk of every function in ``src/`` changes neither
        ``charges`` nor ``draws_first``: those facts reach their fixpoint."""
        analysis = _flow_analysis([os.path.join(SRC, "repro")])
        assert analysis.rounds < MAX_ROUNDS
        charging = drawing = 0
        for key, info in analysis.callgraph.functions.items():
            settled = analysis.summaries[key]
            again = analysis._analyze(info, collect=[])
            assert again.charges == settled.charges, key
            assert again.draws_first == settled.draws_first, key
            charging += settled.charges
            drawing += bool(settled.draws_first)
        assert charging and drawing


# --------------------------------------------------------------------------- #
# the dirty-set fixpoint walks less and computes the same summaries
# --------------------------------------------------------------------------- #

def _full_rounds(analysis: FlowAnalysis,
                 max_rounds: int = MAX_ROUNDS) -> FlowAnalysis:
    """The reference the dirty set must match: every round walks every
    function (at most ``max_rounds`` rounds), then a reporting pass walks
    every function again with the summaries as they stand."""
    infos = list(analysis.callgraph.functions.items())

    def round_() -> bool:
        changed = False
        for key, info in infos:
            new = analysis._analyze(info, collect=[])
            if analysis.summaries.get(key) != new:
                analysis.summaries[key] = new
                changed = True
        return changed

    analysis.rounds = fixpoint(round_, max_rounds)
    for _, info in infos:
        analysis._analyze(info, collect=analysis.hits)
    return analysis


_EQUIVALENCE_TARGETS = [
    fixture(name) for name in sorted(os.listdir(FIXTURES))
] + [os.path.join(SRC, "repro")]


class TestDirtySetFixpoint:
    @pytest.mark.parametrize(
        "path", _EQUIVALENCE_TARGETS,
        ids=[os.path.basename(p) for p in _EQUIVALENCE_TARGETS],
    )
    def test_matches_full_rounds(self, path):
        fast = _unrun_analysis([path])
        ref = _full_rounds(
            FlowAnalysis(fast.modules, fast.callgraph, fast.config)
        )
        fast.run()
        assert fast.summaries == ref.summaries
        assert fast.hits == ref.hits
        assert fast.rounds == ref.rounds

    def test_walks_only_functions_whose_callees_changed(self):
        """Full rounds would walk every function ``rounds`` times, and a
        reporting pass once more; the dirty set walks each about once on
        ``src/``, and reports from those walks.  Every walk counts,
        those of nested defs too."""
        analysis = _unrun_analysis([os.path.join(SRC, "repro")])
        walk = analysis._analyze
        walks = []

        def counted(info, collect, unit=None):
            walks.append(info)
            return walk(info, collect, unit)

        analysis._analyze = counted
        analysis.run()
        assert analysis.rounds > 2
        assert len(walks) < 2 * len(analysis.callgraph.functions)

    def test_nested_def_reads_walk_its_outer_function_again(self, tmp_path):
        """A nested def is walked with its outer function, so a late change
        to a summary only the nested def reads walks the outer one again."""
        path = tmp_path / "late_closure_draw.py"
        path.write_text(
            "def outer(gen):\n"
            "    def inner():\n"
            "        return helper(gen)\n"
            "    return inner\n"
            "\n"
            "def helper(gen):\n"
            "    return deeper(gen)\n"
            "\n"
            "def deeper(gen):\n"
            "    return gen.laplace(0.0, 1.0)\n"
        )
        fast = _unrun_analysis([str(path)])
        ref = _full_rounds(
            FlowAnalysis(fast.modules, fast.callgraph, fast.config)
        )
        fast.run()
        assert fast.hits == ref.hits
        assert [(info.qualname, hit.node_line)
                for _, info, hit in fast.hits][0] == ("inner", 3)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_round_cap_rewalks_the_functions_left_dirty(self, cap, monkeypatch):
        """Cut short by the round cap, the run still reports what a
        reporting pass over the capped summaries would: the functions a
        late summary change left dirty are walked once more."""
        path = fixture("charge_before_release_deep.py")
        fast = _unrun_analysis([path])
        ref = _full_rounds(
            FlowAnalysis(fast.modules, fast.callgraph, fast.config), cap
        )
        assert _flow_analysis([path]).rounds > cap
        monkeypatch.setattr(
            dataflow, "fixpoint", functools.partial(fixpoint, max_rounds=cap)
        )
        fast.run()
        assert fast.rounds == ref.rounds == cap
        assert fast.summaries == ref.summaries
        assert fast.hits == ref.hits


# --------------------------------------------------------------------------- #
# flow traces: v2 schema and the render/parse round trip
# --------------------------------------------------------------------------- #

_PATH_ST = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-",
    min_size=1,
    max_size=30,
)
_NOTE_ST = st.text(
    st.characters(min_codepoint=32), max_size=60
).filter(lambda s: " -> " not in s)
_HOP_ST = st.builds(
    TraceHop, path=_PATH_ST, line=st.integers(0, 10**6), note=_NOTE_ST
)


class TestTraceRoundTrip:
    @given(hops=st.lists(_HOP_ST, max_size=5))
    def test_render_then_parse_is_identity(self, hops):
        assert parse_trace(render_trace(hops)) == tuple(hops)

    def test_empty_string_is_empty_trace(self):
        assert parse_trace("") == ()
        assert render_trace(()) == ""

    def test_malformed_hop_raises(self):
        with pytest.raises(ValueError, match="malformed trace hop"):
            parse_trace("no line number here")


class TestSchemaV2:
    def test_findings_carry_trace_hops(self):
        result = flow_lint([fixture("taint_error_envelope_bad.py")])
        report = json.loads(format_json(result))
        assert report["version"] == JSON_SCHEMA_VERSION == 2
        traced = [e for e in report["findings"] if e["trace"]]
        assert traced
        for entry in traced:
            for hop in entry["trace"]:
                assert set(hop) == {"path", "line", "note"}
                assert isinstance(hop["line"], int)

    def test_text_rendering_includes_the_trace(self):
        result = flow_lint([fixture("taint_error_envelope_bad.py")])
        text = format_text(result)
        assert "trace:" in text and " -> " in text

    def test_v1_consumer_reads_v2_report(self):
        """A consumer written against schema v1 (the old CI gate) keeps
        working on a v2 report: every v1 field is present and typed the
        same; the additive ``trace`` field is ignorable."""
        result = flow_lint([fixture("taint_unsanitized_release_bad.py")])
        report = json.loads(format_json(result))

        def v1_consumer(rep):
            assert rep["tool"] == "repro-lint"
            assert isinstance(rep["version"], int) and rep["version"] >= 1
            total = rep["summary"]["total"]
            assert total == len(rep["findings"])
            for entry in rep["findings"]:
                for key, typ in (
                    ("rule", str), ("path", str), ("line", int),
                    ("col", int), ("severity", str), ("message", str),
                ):
                    assert isinstance(entry[key], typ)
            for entry in rep["suppressed"]:
                assert entry["reason"].strip()
            return total

        assert v1_consumer(report) == len(result.findings) > 0

    def test_ast_engine_findings_have_empty_traces(self):
        result = lint_paths([fixture("monotonic_deadlines_bad.py")])
        report = json.loads(format_json(result))
        assert report["findings"]
        assert all(e["trace"] == [] for e in report["findings"])


# --------------------------------------------------------------------------- #
# SARIF 2.1.0 emission (satellite 5)
# --------------------------------------------------------------------------- #

class TestSarif:
    def test_minimal_valid_shape(self):
        result = flow_lint([fixture("taint_unsanitized_release_bad.py")])
        doc = to_sarif(result)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert "taint-unsanitized-release" in rule_ids
        for res in run["results"]:
            assert rule_ids[res["ruleIndex"]] == res["ruleId"]
            assert res["level"] in ("error", "warning")
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1
            assert loc["region"]["startColumn"] >= 1

    def test_flow_trace_becomes_a_code_flow(self):
        result = flow_lint([fixture("taint_error_envelope_bad.py")])
        doc = to_sarif(result)
        flows = [
            r["codeFlows"] for r in doc["runs"][0]["results"] if "codeFlows" in r
        ]
        assert flows
        locations = flows[0][0]["threadFlows"][0]["locations"]
        assert len(locations) >= 2
        notes = [l["location"]["message"]["text"] for l in locations]
        assert notes[-1].startswith("sink:")

    def test_suppressed_findings_are_in_source_suppressions(self):
        result = lint_paths([fixture("suppressed_ok.py")])
        assert result.suppressed
        doc = to_sarif(result)
        suppressed = [
            r for r in doc["runs"][0]["results"] if r.get("suppressions")
        ]
        assert len(suppressed) == len(result.suppressed)
        for res in suppressed:
            (sup,) = res["suppressions"]
            assert sup["kind"] == "inSource"
            assert sup["justification"].strip()

    def test_cli_writes_sarif_alongside_report(self, tmp_path):
        out = tmp_path / "lint.sarif"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint",
                fixture("lockset_unguarded_access_bad.py"),
                "--format=json", f"--sarif={out}",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        sarif = json.loads(out.read_text())
        assert report["summary"]["total"] == len(
            [r for r in sarif["runs"][0]["results"] if "suppressions" not in r]
        )


# --------------------------------------------------------------------------- #
# --diff scoping (satellite 2)
# --------------------------------------------------------------------------- #

def _git(tmp_path, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        check=True,
    )


class TestDiffScoping:
    def test_changed_plus_dependents(self, tmp_path):
        (tmp_path / "base.py").write_text("def helper():\n    return 1\n")
        (tmp_path / "user.py").write_text(
            "from base import helper\n\ndef use():\n    return helper()\n"
        )
        (tmp_path / "island.py").write_text("def alone():\n    return 3\n")
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        (tmp_path / "base.py").write_text("def helper():\n    return 2\n")

        chosen, note = select_diff_paths(
            [str(tmp_path)], "HEAD", cwd=str(tmp_path)
        )
        names = {os.path.basename(p) for p in chosen}
        assert names == {"base.py", "user.py"}  # island.py out of scope
        assert "2/3 files in scope" in note

    def test_no_changes_selects_nothing(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        chosen, note = select_diff_paths(
            [str(tmp_path)], "HEAD", cwd=str(tmp_path)
        )
        assert chosen == [] and "0/1" in note

    def test_without_git_falls_back_to_full_tree(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        env_cwd = str(tmp_path)  # not a git repository
        chosen, note = select_diff_paths(
            [str(tmp_path)], "HEAD", cwd=env_cwd
        )
        assert len(chosen) == 2
        assert "falling back to the full tree" in note

    def test_cli_diff_flag_runs_and_notes_scope(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint", str(tmp_path),
                "--diff", "HEAD",
            ],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "--diff HEAD" in proc.stderr


# --------------------------------------------------------------------------- #
# suppression names: one catalogue, both halves known
# --------------------------------------------------------------------------- #

class TestSuppressionInterplay:
    def test_known_rules_spans_both_suites(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "# repro-lint: disable=taint-unsanitized-release — a flow rule\n"
            "# repro-lint: disable=monotonic-deadlines — a syntactic rule\n"
            "# repro-lint: disable=locked-ledger-mutation — the folded rule\n"
            "VALUE = 1\n"
        )
        for only in (None, FLOW_RULE_NAMES, ("monotonic-deadlines",)):
            result = lint_paths([str(f)], only=only)
            assert result.ok, format_text(result)

    def test_flow_rule_suppression_is_known_to_the_ast_engine(self, tmp_path):
        """A run limited to the syntactic rules still knows flow names."""
        f = tmp_path / "mod.py"
        f.write_text(
            "# repro-lint: disable=taint-unsanitized-release — flow-gate "
            "suppression must not trip a syntactic-only run\n"
            "VALUE = 1\n"
        )
        result = lint_paths([str(f)], only=RULE_NAMES)
        assert result.ok, format_text(result)

    def test_ast_rule_suppression_is_known_to_the_flow_engine(self, tmp_path):
        """A run limited to the flow rules still knows syntactic names."""
        f = tmp_path / "mod.py"
        f.write_text(
            "# repro-lint: disable=monotonic-deadlines — display-only stamp\n"
            "VALUE = 1\n"
        )
        result = flow_lint([str(f)])
        assert result.ok, format_text(result)

    def test_unknown_rule_is_flagged(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "# repro-lint: disable=lockset-unguarded-acces — typo\n"
            "VALUE = 1\n"
        )
        result = lint_paths([str(f)])
        bad = [x for x in result.findings if x.rule == "bad-suppression"]
        assert len(bad) == 1
        assert "lockset-unguarded-acces" in bad[0].message

    def test_multi_rule_disable_covers_both_flow_rules(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def handle(counts):\n"
            "    try:\n"
            "        raw = counts.total()\n"
            "    except Exception as exc:\n"
            "        raw = str(exc)\n"
            "    # repro-lint: disable=taint-unsanitized-release,"
            "taint-error-envelope — test: one comment silences both rules\n"
            "    return {\"status\": \"error\", \"result\": raw}\n"
        )
        result = flow_lint([str(f)])
        assert result.ok, format_text(result)
        rules = {s.finding.rule for s in result.suppressed}
        assert rules == {
            "taint-unsanitized-release", "taint-error-envelope",
        }


# --------------------------------------------------------------------------- #
# rule selection over the one catalogue, and the repo-wide gate
# --------------------------------------------------------------------------- #

class TestEngineSelection:
    def test_rules_for_engine(self):
        """There is one catalogue; ``engine`` accepts only ``"all"``."""
        names = tuple(r.name for r in CATALOGUE)
        assert names == RULE_NAMES + FLOW_RULE_NAMES
        assert len(names) == len(set(names)) == 12
        assert Linter().run([]).rules_run == names
        assert lint_paths([], engine="all").rules_run == names
        for engine in ("ast", "flow", "psychic"):
            with pytest.raises(ValueError, match="unknown engine"):
                lint_paths([SRC], engine=engine)

    def test_rule_filter_is_engine_scoped(self):
        """``--rule`` accepts any catalogue name, from either half, and
        scopes the run to exactly the named rules."""
        for name in (r.name for r in CATALOGUE):
            assert Linter(only=(name,)).run([]).rules_run == (name,)
        mixed = Linter(only=("lockset-order-cycle", "no-global-rng"))
        assert mixed.run([]).rules_run == ("no-global-rng", "lockset-order-cycle")
        with pytest.raises(ValueError, match="unknown rule"):
            Linter(only=("taint-error-envelope", "psychic"))

    def test_whole_repo_is_flow_clean(self):
        result = flow_lint([SRC])
        assert result.ok, format_text(result)
        for sup in result.suppressed:
            assert sup.reason.strip()

    def test_cli_flow_engine_exits_one_on_findings(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint",
                fixture("taint_error_envelope_bad.py"),
                "--rule=taint-error-envelope",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert "taint-error-envelope" in proc.stdout
        assert "trace:" in proc.stdout
