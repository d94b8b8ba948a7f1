"""Tests for repro-lint (repro.analysis): framework, rules, CLI, CI gate.

Fixture files under ``tests/fixtures/lint/`` are known-bad/known-good
snippets per rule; they are parsed by the linter, never imported.
"""

import gc
import json
import os
import subprocess
import sys
import tokenize

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    CATALOGUE,
    Finding,
    JSON_SCHEMA_VERSION,
    Linter,
    RULE_NAME_RE,
    format_json,
    format_text,
    lint_paths,
    parse_suppression_comment,
    parse_suppressions,
    parse_trace,
    render_suppression,
    render_trace,
    sort_findings,
)
from repro.analysis import engine as lint_engine
from test_flow import FIRE_CASES as FLOW_FIRE_CASES

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures", "lint")
SRC = os.path.join(os.path.dirname(HERE), "src")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def rules_fired(result) -> "set[str]":
    return {f.rule for f in result.findings}


# --------------------------------------------------------------------------- #
# per-rule fire / no-fire pairs
# --------------------------------------------------------------------------- #

FIRE_CASES = [
    ("charge_before_release_bad.py", "charge-before-release", 1),
    ("charge_before_release_interprocedural.py", "charge-before-release", 1),
    ("charge_before_release_deep.py", "charge-before-release", 1),
    ("charge_before_release_recursive.py", "charge-before-release", 1),
    ("pr4_charge_after_release.py", "charge-before-release", 2),
    ("no_float_epsilon_arithmetic_bad.py", "no-float-epsilon-arithmetic", 3),
    ("no_global_rng_bad.py", "no-global-rng", 3),
    ("no_global_rng_from_numpy_bad.py", "no-global-rng", 1),
    ("no_global_rng_numpy_random_alias_bad.py", "no-global-rng", 1),
    ("trace_key_hygiene_bad.py", "trace-key-hygiene", 2),
    ("monotonic_deadlines_bad.py", "monotonic-deadlines", 2),
    ("monotonic_deadlines_time_alias_bad.py", "monotonic-deadlines", 1),
    ("monotonic_deadlines_from_time_alias_bad.py", "monotonic-deadlines", 1),
    ("locked_ledger_mutation_bad.py", "locked-ledger-mutation", 2),
    ("fsync_in_hook_bad.py", "fsync-in-hook", 1),
    ("fsync_in_hook_open_scope_bad.py", "fsync-in-hook", 1),
    ("no_cached_envelope_mutation_bad.py", "no-cached-envelope-mutation", 2),
]

NO_FIRE_CASES = [
    "charge_before_release_ok.py",
    "charge_before_release_public_data_ok.py",
    "no_float_epsilon_arithmetic_ok.py",
    "no_global_rng_ok.py",
    "trace_key_hygiene_ok.py",
    "monotonic_deadlines_ok.py",
    "locked_ledger_mutation_ok.py",
    "fsync_in_hook_ok.py",
    "fsync_in_hook_open_scope_ok.py",
    "no_cached_envelope_mutation_ok.py",
]


class TestRuleFixtures:
    @pytest.mark.parametrize("name,rule,min_count", FIRE_CASES)
    def test_bad_fixture_fires(self, name, rule, min_count):
        result = lint_paths([fixture(name)])
        fired = [f for f in result.findings if f.rule == rule]
        assert len(fired) >= min_count, format_text(result)
        assert rules_fired(result) == {rule}  # and nothing else

    @pytest.mark.parametrize("name", NO_FIRE_CASES)
    def test_good_fixture_is_clean(self, name):
        result = lint_paths([fixture(name)])
        assert result.ok, format_text(result)
        assert not result.suppressed

    def test_every_rule_has_a_firing_fixture(self):
        covered = {rule for _, rule, _ in FIRE_CASES + FLOW_FIRE_CASES}
        assert covered == {rule.name for rule in CATALOGUE}

    def test_pr4_regression_shape_is_flagged(self):
        """The linter would have caught PR 4's DPKMeans.fit bug."""
        result = lint_paths([fixture("pr4_charge_after_release.py")])
        fired = [f for f in result.findings if f.rule == "charge-before-release"]
        assert len(fired) == 2  # the counts draw and the sums draw
        assert all("fit" in f.message for f in fired)

    def test_interprocedural_hop_names_the_callee(self):
        result = lint_paths(
            [fixture("charge_before_release_interprocedural.py")]
        )
        (f,) = result.findings
        assert "_release_counts" in f.message

    def test_draw_three_hops_down_is_flagged(self):
        """No hop cap: fit -> _prepare -> _perturb -> _sample draws."""
        result = lint_paths([fixture("charge_before_release_deep.py")])
        (f,) = result.findings
        assert f.line == 12 and "via DeepDrawMechanism._prepare" in f.message
        assert [hop.note for hop in f.trace] == [
            "call: DeepDrawMechanism._prepare",
            "call: DeepDrawMechanism._perturb",
            "call: DeepDrawMechanism._sample",
            "draw: gen.laplace()",
        ]

    def test_deep_trace_round_trips_and_ends_on_the_draw(self):
        path = fixture("charge_before_release_deep.py")
        (f,) = lint_paths([path]).findings
        assert parse_trace(render_trace(f.trace)) == f.trace
        with open(path) as fh:
            draw_line = next(
                i for i, line in enumerate(fh, 1) if "gen.laplace(" in line
            )
        assert (f.trace[-1].path, f.trace[-1].line) == (path, draw_line)
        assert f.as_dict()["trace"][-1]["line"] == draw_line

    def test_mutual_recursion_terminates_and_fires_once(self):
        result = lint_paths([fixture("charge_before_release_recursive.py")])
        (f,) = result.findings
        assert "RecursiveDrawMechanism.fit" in f.message
        assert f.trace[-1].note == "draw: gen.laplace()"

    def test_accounting_closure_is_checked_for_its_own_draws(self, tmp_path):
        """A nested def is no call-graph node, but one that references an
        accountant is still in scope, named after its enclosing class."""
        f = tmp_path / "closure.py"
        f.write_text(
            "class Fitter:\n"
            "    def fit(self, data, gen):\n"
            "        def step(accountant):\n"
            "            noise = gen.laplace(size=len(data))\n"
            "            accountant.spend(1.0, 'step')\n"
            "            return noise\n"
            "        return step\n"
        )
        (finding,) = lint_paths([str(f)]).findings
        assert finding.line == 4 and "in Fitter.step" in finding.message

    def test_public_generator_is_what_keeps_the_demo_shape_clean(
        self, monkeypatch
    ):
        """Without its manifest declaration, the synthetic-table generator
        would count as a draw before the charge."""
        from repro.privacy import manifest

        name = fixture("charge_before_release_public_data_ok.py")
        assert "diabetes_like" in manifest.PUBLIC_GENERATORS
        assert lint_paths([name]).ok
        monkeypatch.setattr(manifest, "PUBLIC_GENERATORS", set())
        (f,) = lint_paths([name]).findings
        assert "via diabetes_like draws first" in f.message


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #

class TestSuppressions:
    def test_well_formed_suppression_moves_finding_aside(self):
        result = lint_paths([fixture("suppressed_ok.py")])
        assert result.ok
        (sup,) = result.suppressed
        assert sup.finding.rule == "monotonic-deadlines"
        assert "display-only" in sup.reason

    def test_missing_reason_is_its_own_finding_and_does_not_suppress(self):
        result = lint_paths([fixture("suppression_missing_reason.py")])
        assert rules_fired(result) == {"bad-suppression", "monotonic-deadlines"}
        assert not result.suppressed
        bad = [f for f in result.findings if f.rule == "bad-suppression"]
        assert "reason" in bad[0].message

    def test_unknown_rule_name_is_flagged(self):
        result = lint_paths([fixture("suppression_unknown_rule.py")])
        bad = [f for f in result.findings if f.rule == "bad-suppression"]
        assert len(bad) == 1
        assert "no-such-rule" in bad[0].message

    def test_parse_rejects_illegal_rule_names(self):
        parsed = parse_suppression_comment(
            "# repro-lint: disable=Bad_Rule — reason"
        )
        assert isinstance(parsed, str) and "illegal rule name" in parsed

    def test_parse_ignores_ordinary_comments(self):
        assert parse_suppression_comment("# just a comment") is None

    def test_ascii_spaced_double_hyphen_separator(self):
        parsed = parse_suppression_comment(
            "# repro-lint: disable=no-global-rng -- ascii separator works"
        )
        assert parsed == (("no-global-rng",), "ascii separator works")

    def test_source_without_marker_is_never_tokenized(self, monkeypatch):
        def refuse(readline):
            raise AssertionError("tokenize ran on a marker-free source")

        monkeypatch.setattr(tokenize, "generate_tokens", refuse)
        source = "import os\n\n# an ordinary comment\nx = os.sep  # noqa\n"
        assert parse_suppressions("m.py", source) == ((), ())

    def test_marker_text_inside_a_string_is_not_a_suppression(self):
        source = (
            'NOTE = "# repro-lint: disable=no-global-rng — in a string"\n'
        )
        assert parse_suppressions("m.py", source) == ((), ())

    def test_malformed_marker_is_still_flagged(self):
        source = "x = 1  # repro-lint: disable=no-global-rng\n"
        sups, bad = parse_suppressions("m.py", source)
        assert sups == ()
        (finding,) = bad
        assert finding.rule == "bad-suppression"
        assert (finding.line, finding.col) == (1, 7)

    def test_every_repo_suppression_reason_is_nonempty(self):
        result = lint_paths([SRC])
        assert result.suppressed  # the repo does carry intentional ones
        for sup in result.suppressed:
            assert sup.reason.strip()


# -- hypothesis round-trip -------------------------------------------------- #

RULE_NAME_ST = st.from_regex(RULE_NAME_RE, fullmatch=True)
REASON_ST = (
    st.text(
        st.characters(
            codec="utf-8", blacklist_characters="\n\r", min_codepoint=32
        ),
        min_size=1,
        max_size=80,
    )
    .map(str.strip)
    .filter(bool)
)


class TestSuppressionRoundTrip:
    @given(
        rules=st.lists(RULE_NAME_ST, min_size=1, max_size=4), reason=REASON_ST
    )
    def test_render_then_parse_is_identity(self, rules, reason):
        parsed = parse_suppression_comment(render_suppression(rules, reason))
        assert parsed == (tuple(rules), reason)


# --------------------------------------------------------------------------- #
# engine / result model
# --------------------------------------------------------------------------- #

class TestEngine:
    def test_rule_filter_runs_only_named_rules(self):
        result = Linter(only=("monotonic-deadlines",)).run(
            [fixture("no_global_rng_bad.py")]
        )
        assert result.ok  # the global-rng violations are out of scope
        assert result.rules_run == ("monotonic-deadlines",)

    def test_rule_filter_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown rule"):
            Linter(only=("not-a-rule",))

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([fixture("does_not_exist.py")])

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", ["no_global_rng_ok.py", "does_not_exist.py"])
    def test_run_pauses_the_collector_and_restores_it(
        self, enabled, name, monkeypatch
    ):
        """The collector is off for the run and left as the run found it,
        also when the run raises."""
        seen = []
        build = lint_engine.build_callgraph

        def spy(modules):
            seen.append(gc.isenabled())
            return build(modules)

        monkeypatch.setattr(lint_engine, "build_callgraph", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if name == "does_not_exist.py":
                with pytest.raises(FileNotFoundError):
                    lint_paths([fixture(name)])
            else:
                lint_paths([fixture(name)])
                assert seen == [False]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([str(bad)])
        assert rules_fired(result) == {"parse-error"}

    def test_findings_sort_deterministically(self):
        a = Finding("b.py", 1, 0, "r", "m")
        b = Finding("a.py", 9, 0, "r", "m")
        c = Finding("a.py", 2, 0, "r", "m")
        assert sort_findings([a, b, c]) == (c, b, a)

    def test_text_format_renders_locations(self):
        result = lint_paths([fixture("monotonic_deadlines_bad.py")])
        text = format_text(result)
        assert "monotonic_deadlines_bad.py:" in text
        assert "monotonic-deadlines error:" in text
        assert text.strip().endswith("1 file checked")

    def test_rule_catalog_is_documented(self):
        for rule in CATALOGUE:
            assert rule.name and rule.description
            assert RULE_NAME_RE.match(rule.name)


class TestJsonReport:
    def test_schema_fields_and_version(self):
        result = lint_paths([fixture("suppression_missing_reason.py")])
        report = json.loads(format_json(result))
        assert report["version"] == JSON_SCHEMA_VERSION == 2
        assert report["tool"] == "repro-lint"
        assert report["files"] == 1
        assert set(report["summary"]) == {
            "total", "suppressed", "by_rule", "rules_run",
        }
        for entry in report["findings"]:
            assert set(entry) == {
                "rule", "path", "line", "col", "severity", "message", "trace",
            }
        assert report["summary"]["total"] == len(report["findings"]) > 0

    def test_suppressed_entries_carry_reasons(self):
        result = lint_paths([fixture("suppressed_ok.py")])
        report = result.report()
        (entry,) = report["suppressed"]
        assert entry["reason"]
        assert entry["rule"] == "monotonic-deadlines"


# --------------------------------------------------------------------------- #
# the repo itself, and the CLI surface the CI gate drives
# --------------------------------------------------------------------------- #

class TestRepoIsClean:
    def test_whole_repo_lints_clean(self):
        result = lint_paths([SRC])
        assert result.ok, format_text(result)

    def test_cli_subprocess_exits_zero_with_stable_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", SRC, "--format=json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["version"] == 2
        assert report["summary"]["total"] == 0
        assert all(e["reason"].strip() for e in report["suppressed"])

    def test_cli_exits_one_on_findings(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint",
                fixture("monotonic_deadlines_bad.py"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert "monotonic-deadlines" in proc.stdout

    def test_cli_rejects_unknown_rule_with_exit_2(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint", SRC,
                "--rule", "not-a-rule",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr
