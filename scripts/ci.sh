#!/usr/bin/env bash
# CI entry point: repro-lint, tier-1 tests, then seven benchmarks.
#
#   scripts/ci.sh            # full tier-1 suite, then every bench
#   scripts/ci.sh --fast     # -x fail-fast test run, same benches
#
# Steps, in the order the script runs them:
#
# 1. repro-lint (python -m repro lint src/) gates the run with the whole
#    rule catalogue — the syntactic DP-invariant rules and the
#    interprocedural taint + lockset rules: zero findings allowed,
#    suppressions must carry reasons, and the JSON report is archived as
#    LINT_report.json with a SARIF 2.1.0 twin at LINT_report.sarif.  The
#    step's wall time is printed (reported, not gated).
# 2. Tier-1 tests (python -m pytest over tests/, per pytest.ini).
# 3. Scoring bench (bench_micro.py) compares the scalar-oracle scoring path
#    against the batched engine on diabetes_like(50k) with 8 clusters and
#    writes BENCH_scoring.json.  It also records counts_build_s, the median
#    cold ClusteredCounts build + materialise() on the same table (row
#    assignment and group-bys; reported, not gated).
# 4. Scale bench (bench_scale.py) measures the large-n regime and merges a
#    "scale" section into BENCH_scoring.json: streaming counts
#    materialisation at 1M and 10M rows (wall time + peak RSS in a fresh
#    spawn child — the raw table is never held, so RSS is gated against a
#    fixed budget) and per-task sweep fan-out cost at 50k vs 1M rows (the
#    shared-memory stack handoff must keep it flat; gated at 1.2x).
# 5. Sweep bench (bench_sweeps.py) compares the serial one-seed-at-a-time
#    run_trials loop against the batched sweep layer on a full 10-run x
#    5-epsilon sweep of diabetes_like(20k) and writes BENCH_sweeps.json; it
#    also asserts the two paths return exactly equal results under shared
#    RNG streams.
# 6. Service bench (bench_service.py) replays a repeat-heavy request
#    workload against the explanation service (coalescing +
#    fingerprint-keyed cache) vs naive per-request serial execution and
#    writes BENCH_service.json; it asserts the served payloads are
#    byte-identical to the serial path's.
# 7. Sharded load bench (bench_load.py) drives the sharded multi-process
#    tier through the async front end — open-loop Poisson arrivals with
#    zipf tenant/seed skew (p50/p99/p999 latency) plus a closed-loop
#    saturation flood vs a single-process service — and merges a "sharded"
#    section into BENCH_service.json.  DP-release byte-identity across
#    deployments is always asserted, and so is the flood's frames/request
#    <= 1/16 (one frame per worker link per event-loop tick); the >=3x
#    multi-worker saturation speedup only where >=8 cores exist to scale
#    onto (recorded in the artifact either way).  It also gates the
#    observability layer: the metrics registry must cost <=5%
#    single-process throughput (obs.throughput_ratio >= 0.95), must never
#    perturb DP bytes (obs.byte_identical), and the sharded scrape must show
#    non-zero frontend-queue / frame-rtt / engine-score / journal-fsync span
#    counts.
# 8. Pipeline bench (bench_pipeline.py) replays a fit-once/explain-many
#    pipeline workload (server-side DP clustering + explanation) against the
#    /v1/pipeline path vs naive refit-per-request execution and writes
#    BENCH_pipeline.json; the spec-seeded fits are byte-reproducible, so it
#    also asserts payload byte-identity.
# 9. Ledger bench (bench_ledger.py) measures budget-ledger charge admission
#    at a 100k-charge ledger (exact O(1) integer accounting vs the seed's
#    O(n) float re-sum), the refund of a just-minted charge on 1k- vs
#    100k-charge ledgers (gated at <= 4x growth), persistence
#    bytes-per-request (append-only journal vs full snapshot rewrite), the
#    bytes the process writes per funded service miss on tenant ledgers
#    preloaded with 1k vs 100k charges (wchar from /proc/self/io, so any
#    snapshot rewrite counts; gated at <= 1.5x growth), the best-of-3
#    reload time of those two journal-only directories (reported, not
#    gated) and journal fsyncs per request for one 16-miss service batch
#    (group commit: gated at <= 1/16 for one tenant; the 16-tenant zipf
#    figure is recorded, not gated) and writes BENCH_ledger.json.
#
# All artifacts live at the repo root — the perf-trajectory record across PRs.
set -euo pipefail
cd "$(dirname "$0")/.."
# Only src/ goes on PYTHONPATH: bench scripts run as `python benchmarks/x.py`,
# which puts benchmarks/ itself on sys.path (adding it here would expose
# benchmarks/conftest.py to the tier-1 pytest run — the shadowing hazard
# pytest.ini documents).
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

PYTEST_ARGS=(-q)
if [[ "${1:-}" == "--fast" ]]; then
    PYTEST_ARGS=(-x -q)
fi

echo "== repro-lint static analysis (writes LINT_report.json + .sarif) =="
# Hard gate: every rule of the catalogue — the syntactic DP-invariant
# rules (repro.analysis.rules) and the interprocedural taint + lockset
# rules (repro.analysis.flow) — must find nothing in src/, and every
# inline suppression must carry its reason.  The JSON report (schema v2:
# v1 plus per-finding flow traces, see src/repro/analysis/model.py) is
# archived at the repo root next to the BENCH_*.json artifacts, with a
# SARIF 2.1.0 twin for code-scanning consumers.
lint_status=0
lint_start=$(date +%s.%N)
python -m repro lint src/ --format=json \
    --sarif LINT_report.sarif > LINT_report.json || lint_status=$?
lint_end=$(date +%s.%N)
# Reported, not gated: a timing gate within host noise would be flaky.
awk -v s="$lint_start" -v e="$lint_end" \
    'BEGIN { printf "repro-lint wall time: %.2f s\n", e - s }'

python - <<'EOF'
import json

with open("LINT_report.json") as fh:
    report = json.load(fh)
assert report["version"] == 2, f"unexpected lint schema version: {report['version']}"
with open("LINT_report.sarif") as fh:
    sarif = json.load(fh)
assert sarif["version"] == "2.1.0", "SARIF version drifted"
assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
summary = report["summary"]
for finding in report["findings"]:
    print(f"LINT: {finding['path']}:{finding['line']}:{finding['col']}: "
          f"{finding['rule']} {finding['severity']}: {finding['message']}")
print(f"repro-lint: {summary['total']} finding(s), "
      f"{summary['suppressed']} suppressed, {report['files']} file(s), "
      f"rules: {', '.join(summary['rules_run'])}")
assert summary["total"] == 0, (
    f"repro-lint found {summary['total']} violation(s) — fix them or add a "
    "reasoned '# repro-lint: disable=<rule> — <why>' suppression"
)
for entry in report["suppressed"]:
    assert entry["reason"].strip(), (
        f"unexplained suppression at {entry['path']}:{entry['line']}"
    )
EOF

if [[ "$lint_status" -ne 0 ]]; then
    echo "repro-lint exited $lint_status" >&2
    exit "$lint_status"
fi

echo "== tier-1 tests =="
# Includes the service-layer suite (tests/test_service.py,
# tests/test_fingerprints.py) via pytest.ini's testpaths.
python -m pytest "${PYTEST_ARGS[@]}"

echo "== scoring micro-benchmark (writes BENCH_scoring.json) =="
python benchmarks/bench_micro.py --out BENCH_scoring.json

python - <<'EOF'
import json

with open("BENCH_scoring.json") as fh:
    result = json.load(fh)
speedup = result["speedup"]
agree = max(result["stage1_max_rel_diff"], result["stage2_max_rel_diff"])
print(f"scoring speedup: {speedup:.1f}x (cold {result['speedup_cold']:.1f}x), "
      f"max rel diff {agree:.2e}")
print(f"cold counts build: {result['counts_build_s'] * 1e3:.1f} ms (reported, not gated)")
assert speedup >= 10.0, f"scoring speedup regressed below 10x: {speedup:.2f}x"
assert agree < 1e-12, f"batched/scalar scoring disagree: {agree:.2e}"
EOF

echo "== scale benchmark (merges 'scale' into BENCH_scoring.json) =="
python benchmarks/bench_scale.py --out BENCH_scoring.json

python - <<'EOF'
import json

with open("BENCH_scoring.json") as fh:
    scale = json.load(fh)["scale"]

budget = scale["peak_rss_budget_mb"]
for row in scale["materialise"]:
    print(f"materialise {row['rows']:>11,} rows: {row['wall_s']:.1f}s, "
          f"peak RSS {row['peak_rss_mb']:.0f} MB "
          f"(child baseline {row['baseline_rss_mb']:.0f} MB)")
big = max(scale["materialise"], key=lambda r: r["rows"])
assert big["rows"] >= 10_000_000, "scale bench must cover the 10M-row regime"
assert big["peak_rss_mb"] <= budget, (
    f"streaming materialise at {big['rows']:,} rows peaked at "
    f"{big['peak_rss_mb']:.0f} MB (> {budget:.0f} MB budget) — "
    "the one-pass chunked path must not hold the table"
)

fan = scale["fanout"]
print(f"fan-out per-task: shared {fan['shared_per_task_small_s']*1e3:.2f} -> "
      f"{fan['shared_per_task_large_s']*1e3:.2f} ms "
      f"(ratio {fan['shared_ratio']:.2f} at "
      f"{fan['rows_small']:,} -> {fan['rows_large']:,} rows)")
assert fan["shared_ratio"] <= 1.2, (
    f"shared-stack fan-out cost is no longer flat in |D|: "
    f"{fan['shared_ratio']:.2f}x from {fan['rows_small']:,} to "
    f"{fan['rows_large']:,} rows"
)
EOF

echo "== sweep benchmark (writes BENCH_sweeps.json) =="
python benchmarks/bench_sweeps.py --out BENCH_sweeps.json

python - <<'EOF'
import json

with open("BENCH_sweeps.json") as fh:
    result = json.load(fh)
speedup = result["speedup"]
print(f"sweep speedup: {speedup:.1f}x "
      f"(serial {result['serial_s']:.3f}s, batched {result['batched_s']:.3f}s), "
      f"exact_equal={result['exact_equal']}")
assert result["exact_equal"], "batched sweep diverged from the serial path"
assert speedup >= 5.0, f"sweep speedup regressed below 5x: {speedup:.2f}x"
EOF

echo "== service benchmark (writes BENCH_service.json) =="
python benchmarks/bench_service.py --out BENCH_service.json

python - <<'EOF'
import json

with open("BENCH_service.json") as fh:
    result = json.load(fh)
speedup = result["speedup"]
print(f"service speedup: {speedup:.1f}x "
      f"({result['serial_rps']:.0f} -> {result['service_rps']:.0f} req/s, "
      f"cache hit ratio {result['cache_hit_ratio']:.2f}, "
      f"{result['engine_calls']} engine call(s) for "
      f"{result['total_requests']} requests), "
      f"exact_equal={result['exact_equal']}")
assert result["exact_equal"], "service payloads diverged from the serial path"
assert speedup >= 5.0, f"service speedup regressed below 5x: {speedup:.2f}x"
assert result["cache_hit_ratio"] >= 0.5, (
    f"cache hit ratio collapsed: {result['cache_hit_ratio']:.2f}"
)
EOF

echo "== sharded load benchmark (merges 'sharded' into BENCH_service.json) =="
python benchmarks/bench_load.py --out BENCH_service.json

python - <<'EOF'
import json

with open("BENCH_service.json") as fh:
    sharded = json.load(fh)["sharded"]

ol = sharded["open_loop"]
sat = sharded["saturation"]
cores = sharded["cores"]
print(f"open loop @ {ol['offered_rps']:.0f} req/s offered: "
      f"achieved {ol['achieved_rps']:.0f} req/s, "
      f"p50 {ol['p50_ms']:.1f} ms, p99 {ol['p99_ms']:.1f} ms, "
      f"p999 {ol['p999_ms']:.1f} ms ({ol['errors']} errors)")
print(f"saturation: single-process {sat['single_process_rps']:.0f} req/s vs "
      f"{sharded['workers']}-worker sharded {sat['sharded_rps']:.0f} req/s "
      f"(speedup {sat['speedup']:.2f}x on {cores} core(s)), "
      f"{sat['frames_per_request']:.3f} frames/request, "
      f"{sat['engine_passes']} engine passes")
assert sharded["exact_equal"], (
    "sharded tier's DP releases diverged from the single-process service"
)
assert ol["errors"] == 0, f"open-loop load produced {ol['errors']} errors"
for key in ("p50_ms", "p99_ms", "p999_ms"):
    assert ol[key] > 0.0, f"latency histogram missing {key}"
assert ol["p50_ms"] <= ol["p99_ms"] <= ol["p999_ms"], "quantiles disordered"
# One frame per worker link per event-loop tick, at most 64 requests each:
# a flood submitted in one tick costs about 1/50 frames per request.
assert sat["frames_per_request"] <= 1 / 16, (
    f"flood wrote {sat['frames_per_request']:.3f} frames/request (> 1/16): "
    "the front end is no longer batching per link per tick"
)
if cores >= 8:
    assert sat["speedup"] >= 3.0, (
        f"multi-worker saturation speedup below 3x on {cores} cores: "
        f"{sat['speedup']:.2f}x"
    )
else:
    print(f"(skipping >=3x multi-worker gate: only {cores} core(s); "
          f"workers share one CPU, so parallel speedup is impossible here)")

obs = sharded["obs"]
spans = obs["span_counts"]
print(f"observability: registry overhead ratio "
      f"{obs['throughput_ratio']:.3f}x (>=0.95 required), "
      f"byte_identical={obs['byte_identical']}, spans={spans}")
assert obs["throughput_ratio"] >= 0.95, (
    f"metrics registry costs more than 5% throughput: "
    f"{obs['throughput_ratio']:.3f}x"
)
assert obs["byte_identical"], (
    "DP releases changed between obs-enabled and obs-disabled runs"
)
assert obs["prometheus_text_ok"], "merged snapshot failed to render as text"
for span in ("frontend-queue", "frame-rtt", "engine-score", "journal-fsync"):
    assert spans.get(span, 0) > 0, f"no observations for span {span!r}"
EOF

echo "== pipeline benchmark (writes BENCH_pipeline.json) =="
python benchmarks/bench_pipeline.py --out BENCH_pipeline.json

python - <<'EOF'
import json

with open("BENCH_pipeline.json") as fh:
    result = json.load(fh)
speedup = result["speedup"]
print(f"pipeline speedup: {speedup:.1f}x "
      f"({result['serial_rps']:.0f} -> {result['service_rps']:.0f} req/s, "
      f"{result['clustering_fits']} fit(s) + "
      f"{result['clustering_cache_hits']} fitted-cache hit(s) for "
      f"{result['total_requests']} requests), "
      f"exact_equal={result['exact_equal']}")
assert result["exact_equal"], "pipeline payloads diverged from the naive path"
assert speedup >= 3.0, f"pipeline speedup regressed below 3x: {speedup:.2f}x"
assert result["clustering_fits"] == 1, (
    f"fit-once contract broken: {result['clustering_fits']} fits"
)
EOF

echo "== ledger benchmark (writes BENCH_ledger.json) =="
python benchmarks/bench_ledger.py --out BENCH_ledger.json

python - <<'EOF'
import json

with open("BENCH_ledger.json") as fh:
    result = json.load(fh)
speedup = result["admission_speedup"]
print(f"ledger admission speedup at {result['ledger_size']:,} charges: "
      f"{speedup:.0f}x ({result['seed_admission_rps']:.0f} -> "
      f"{result['exact_admission_rps']:.0f} charges/s); "
      f"journal {result['journal_bytes_per_request_large']:.0f} B/request "
      f"(growth {result['journal_bytes_growth']:.2f}x) vs snapshot rewrite "
      f"{result['seed_bytes_per_request_large']:,} B/request")
assert speedup >= 10.0, (
    f"admission speedup at 100k charges regressed below 10x: {speedup:.1f}x"
)
print(f"refund of a just-minted charge: {result['refund_us_small']:.2f} us "
      f"at 1k charges, {result['refund_us_large']:.2f} us at 100k "
      f"(growth {result['refund_growth']:.2f}x)")
assert result["refund_growth"] <= 4.0, (
    "refund must not grow with ledger size, grew "
    f"{result['refund_growth']:.2f}x from 1k to 100k charges"
)
assert result["journal_bytes_growth"] <= 1.5, (
    "journal bytes/request must be O(1) in ledger size, grew "
    f"{result['journal_bytes_growth']:.2f}x from 1k to 100k charges"
)
assert result["persistence_bytes_ratio_at_large"] >= 10.0, (
    "journal records should be far smaller than full snapshot rewrites"
)
print(f"persisted bytes per funded miss: "
      f"{result['persisted_bytes_per_charge_small']:.0f} B at 1k charges, "
      f"{result['persisted_bytes_per_charge_large']:.0f} B at 100k "
      f"(growth {result['persisted_bytes_growth']:.2f}x)")
assert result["persisted_bytes_growth"] <= 1.5, (
    "bytes written per charge must not grow with ledger size, grew "
    f"{result['persisted_bytes_growth']:.2f}x from 1k to 100k charges"
)
print(f"reload of the journal-only ledger: {result['reload_s_small']:.3f} s "
      f"at 1k charges, {result['reload_s_large']:.3f} s at 100k "
      "(best of 3; reported, not gated)")
print(f"journal fsyncs/request over one {result['batch_requests']}-miss "
      f"batch: {result['fsyncs_per_request']:.4f} (1 tenant), "
      f"{result['fsyncs_per_request_zipf16']:.4f} (16 zipf tenants)")
# Group commit: a single-tenant batch pays one fsync, not one per charge.
assert result["batch_requests"] == 16, "the gate is for a 16-miss batch"
assert result["fsyncs_per_request"] <= 1 / 16, (
    f"{result['fsyncs_per_request']:.4f} journal fsyncs/request (> 1/16): "
    "the batch is no longer group-committed"
)
EOF
echo "CI OK"
