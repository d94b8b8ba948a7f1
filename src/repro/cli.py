"""Unified command-line interface: ``python -m repro <command> [options]``.

Commands map one-to-one onto the experiment harnesses (``fig5`` .. ``table1``,
``correlations``, ``binning``) plus ``demo`` (the quickstart pipeline),
``pipeline`` (the end-to-end private pipeline: DP clustering + explanation
under one ledger), ``serve`` (the multi-tenant explanation service over
HTTP) and ``list`` (show the command index).  Every experiment is also runnable as
``python -m repro.experiments.<module>``; this front door just saves typing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

COMMANDS: dict[str, tuple[str, str]] = {
    # command -> (module, paper artifact)
    "fig5": ("repro.experiments.fig5_quality", "Figure 5 — Quality vs epsilon"),
    "fig6": ("repro.experiments.fig6_mae", "Figure 6 — MAE vs epsilon"),
    "fig7": ("repro.experiments.fig7_candidates", "Figure 7 — Quality vs k"),
    "fig8": ("repro.experiments.fig8_clusters", "Figure 8 — clusters / sizes"),
    "fig9": ("repro.experiments.fig9_performance", "Figure 9 — runtimes"),
    "fig10": ("repro.experiments.fig10_case_study", "Figure 10 — case study"),
    "table1": ("repro.experiments.table1_weights", "Table 1 — weight configs"),
    "correlations": ("repro.experiments.correlations", "Sec. 6.2 — correlations"),
    "binning": ("repro.experiments.binning", "Sec. 8 — binning ablation"),
    "eda": ("repro.experiments.eda_comparison", "Sec. 1 — manual EDA comparison"),
    "scale": ("repro.experiments.scale", "repro — quality gap vs dataset size"),
}


def _run_demo(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro demo", description="Run the quickstart pipeline."
    )
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(list(argv))

    from . import DPKMeans, PrivacyAccountant, describe, diabetes_like
    from .core.dpclustx import DPClustX

    data = diabetes_like(n_rows=args.rows, n_groups=args.clusters, seed=7)
    acc = PrivacyAccountant()
    clustering = DPKMeans(args.clusters, epsilon=1.0).fit(
        data, rng=args.seed, accountant=acc
    )
    expl = DPClustX().explain(data, clustering, rng=args.seed, accountant=acc)
    print("selected attributes:", tuple(expl.combination))
    print(describe(expl))
    print(acc.summary())
    return 0


def _run_pipeline(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro pipeline",
        description=(
            "Run the end-to-end private pipeline: fit a DP clustering "
            "(dp-kmeans/dp-kmodes) and explain it with DPClustX, both "
            "charged to one session budget ledger.  Repeat explanations "
            "reuse the released fit at zero extra clustering cost."
        ),
    )
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--method", choices=("dp-kmeans", "dp-kmodes"),
                        default="dp-kmeans")
    parser.add_argument("--clustering-eps", type=float, default=1.0,
                        help="privacy budget of the clustering fit "
                             "(the paper uses 1.0)")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--total-eps", type=float, default=2.0,
                        help="the end-to-end session cap both stages "
                             "draw from")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--explanations", type=int, default=2,
                        help="how many explanations to run over the one "
                             "fitted clustering (fit once, explain many)")
    args = parser.parse_args(list(argv))

    from . import ClusteringSpec, PrivateAnalysisSession, describe, diabetes_like

    data = diabetes_like(n_rows=args.rows, n_groups=args.clusters, seed=7)
    session = PrivateAnalysisSession(
        data, total_epsilon=args.total_eps, seed=args.seed
    )
    spec = ClusteringSpec(
        args.method, args.clusters, args.clustering_eps, args.iterations,
        seed=args.seed,
    )
    for i in range(max(args.explanations, 1)):
        result = session.run_pipeline(spec)
        stage = "fitted" if result.refit else "reused fit"
        print(
            f"run {i + 1}: {stage} {spec.slug()} "
            f"(clustering eps={result.clustering_epsilon:g}, "
            f"explanation eps={result.explanation_epsilon:g})"
        )
        print("  selected attributes:", tuple(result.explanation.combination))
    print(describe(result.explanation))
    print(session.ledger())
    return 0


def _run_serve(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the multi-tenant explanation service over HTTP "
            "(stdlib-only; see repro.service).  Serves a synthetic demo "
            "dataset; tenants are auto-provisioned with --tenant-budget.  "
            "DEMO SCOPE: there is no authentication — tenant identity is "
            "caller-asserted — so keep --host on loopback unless real auth "
            "fronts the server."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback; non-loopback "
                             "prints a no-auth warning)")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--rows", type=int, default=20_000,
                        help="rows of the demo diabetes_like dataset")
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="shard worker PROCESSES for the multi-process "
                             "tier (tenants partitioned by stable hash; "
                             "0 = single-process in-memory service)")
    parser.add_argument("--threads", type=int, default=2,
                        help="coalescing threads per service/worker")
    parser.add_argument("--tenant-budget", type=float, default=1.0,
                        help="per-(tenant, dataset) epsilon cap for "
                             "auto-provisioned tenants")
    parser.add_argument("--ledger-dir", default=None,
                        help="directory for persistent per-tenant budget "
                             "ledgers (crash-safe JSON; reloaded on restart)")
    parser.add_argument("--cache-entries", type=int, default=256)
    args = parser.parse_args(list(argv))

    from . import KMeans, diabetes_like
    from .service import ExplanationService, serve_forever

    data = diabetes_like(
        n_rows=args.rows, n_groups=args.clusters, seed=args.seed
    )
    clustering = KMeans(args.clusters).fit(data, rng=args.seed)
    if args.workers > 0:
        from .service.frontend import ShardedService

        service = ShardedService(
            args.workers,
            ledger_dir=args.ledger_dir,
            cache_entries=args.cache_entries,
            auto_tenant_budget=args.tenant_budget,
            service_threads=args.threads,
        )
        service.start()
        frame = service.register_dataset("diabetes", data, clustering)
        print(f"sharded tier: {args.workers} worker processes "
              f"({args.threads} coalescing threads each)")
        print(f"registered dataset 'diabetes' "
              f"(rows={len(data)}, |C|={frame['handle']['n_clusters']}, "
              f"fingerprint={frame['fingerprint'][:12]}…)")
    else:
        service = ExplanationService(
            ledger_dir=args.ledger_dir,
            cache_entries=args.cache_entries,
            auto_tenant_budget=args.tenant_budget,
        )
        entry = service.register_dataset("diabetes", data, clustering)
        print(f"registered dataset 'diabetes' "
              f"(rows={len(data)}, |C|={entry.counts.n_clusters}, "
              f"fingerprint={entry.fingerprint[:12]}…)")
        service.start(args.threads)
    serve_forever(service, args.host, args.port)
    return 0


def _run_lint(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Statically check the codebase's DP and serving invariants "
            "(charge-before-release, integer-grid epsilon arithmetic, "
            "explicit RNG streams, ...).  Exit 0 when no findings, 1 "
            "otherwise.  See ARCHITECTURE.md 'Static analysis' for the "
            "rule catalog and the suppression policy."
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (json follows the stable "
                             "schema documented in repro.analysis.model)")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="NAME",
                        help="run only this rule (repeatable)")
    parser.add_argument("--diff", metavar="BASE_REF", default=None,
                        help="lint only files changed vs BASE_REF plus "
                             "their call-graph dependents (falls back to "
                             "the full tree without a usable git)")
    parser.add_argument("--sarif", metavar="PATH", default=None,
                        help="additionally write a SARIF 2.1.0 report of "
                             "the same result to PATH")
    args = parser.parse_args(list(argv))

    from .analysis import format_json, format_text, lint_paths

    paths = args.paths or ["src"]
    try:
        if args.diff is not None:
            from .analysis.diff import select_diff_paths

            paths, note = select_diff_paths(paths, args.diff)
            print(f"repro lint: {note}", file=sys.stderr)
        result = lint_paths(paths, only=tuple(args.rule) if args.rule else None)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.sarif is not None:
        from .analysis.sarif import format_sarif

        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(format_sarif(result) + "\n")
    print(format_json(result) if args.format == "json" else format_text(result))
    return 0 if result.ok else 1


def _run_list(argv: Sequence[str]) -> int:
    print("available commands (paper artifact each regenerates):")
    for name, (module, artifact) in COMMANDS.items():
        print(f"  {name:<13} {artifact:<38} [{module}]")
    print("  demo          quickstart pipeline")
    print("  pipeline      end-to-end private pipeline (DP cluster + explain)")
    print("  serve         multi-tenant explanation service (HTTP)")
    print("  lint          static DP-invariant checker (repro-lint)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _run_list([])
        print("\nusage: python -m repro <command> [command options]")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "demo":
        return _run_demo(rest)
    if command == "pipeline":
        return _run_pipeline(rest)
    if command == "serve":
        return _run_serve(rest)
    if command == "lint":
        return _run_lint(rest)
    if command == "list":
        return _run_list(rest)
    if command not in COMMANDS:
        print(f"unknown command {command!r}; try `python -m repro list`")
        return 2
    module_name, _ = COMMANDS[command]
    import importlib

    module = importlib.import_module(module_name)
    old_argv = sys.argv
    try:
        sys.argv = [f"repro {command}"] + rest
        module.main()
    finally:
        sys.argv = old_argv
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
