"""Command-line surface.

Subcommands: select | compare | path-theory | lambda-profile | convexity |
conjecture. Exit codes: 0 success, 1 failed checks or violated report
invariants, 2 parameter errors (argument errors included), 3 numerical
errors; each error prints one ``error: <kind>: <reason>`` line on stderr.
Identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .errors import NumericError, ParameterError
from .experiments import (ComparisonReport, conjecture_probe, convexity_table,
                          lambda_profile, parse_graph_source, path_theory_checks,
                          run_comparison)
from .metrics import Metric, MetricParams, select_best

CSV_HEADER = "# spectral-kcenter v1"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_output(text: str, out: Optional[str]):
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _params_from(args) -> MetricParams:
    return MetricParams(epsilon=args.epsilon, tau=args.tau, rho=args.rho)


def _parse_int_list(text: str, flag: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError:
            raise ParameterError(f"{flag} expects comma-separated integers, "
                                 f"got {piece!r}")
    if not out:
        raise ParameterError(f"{flag} list is empty")
    return out


class _Parser(argparse.ArgumentParser):
    """Reports argument errors, in subcommands too, as parameter errors."""

    def error(self, message):
        raise ParameterError(message)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--epsilon", type=float, default=MetricParams.epsilon,
                   help="diagonal perturbation size (default %(default)g)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_selection(p: argparse.ArgumentParser):
    """The flags that select and compare read besides the common ones."""
    p.add_argument("--tau", type=float, default=MetricParams.tau,
                   help="stochastic step; default 1/(max degree + 1)")
    p.add_argument("--rho", type=float, default=MetricParams.rho,
                   help="charging-energy regularizer (default %(default)g)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


def _cmd_select(args) -> int:
    g = parse_graph_source(args.graph, args.seed)
    params = _params_from(args)
    results = []
    for name in args.metric:
        metric = Metric.parse(name)
        res = select_best(g, args.k, metric, params, keep_table=args.keep_table)
        obj = {
            "metric": metric.value,
            "k": res.k,
            "epsilon": params.epsilon,
            "tau": params.tau_for(g),
            "best": list(res.best),
            "score": res.score,
            "ties": [list(t) for t in res.ties],
        }
        if res.table is not None:
            obj["table"] = [[list(s), v] for (s, v) in res.table]
        results.append(obj)
    payload = results[0] if len(results) == 1 else results
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def comparison_csv(report: ComparisonReport) -> str:
    tau_echo = "1/(maxdeg+1)" if report.params.tau is None else _fmt(report.params.tau)
    lines = [CSV_HEADER,
             "graph_class,n,metric,k,agreement_pct,counted,skipped,trials,seed,"
             "epsilon,tau,rho"]
    for row in report.rows:
        for agg in row.agreements:
            for k in report.k_list:
                lines.append(",".join([
                    row.row_id, str(row.n), agg.metric_b.value, str(k),
                    _fmt(agg.per_k[k]), str(agg.counted_per_k[k]),
                    str(agg.skipped_per_k[k]), str(report.trials),
                    str(report.seed), _fmt(report.params.epsilon), tau_echo,
                    _fmt(report.params.rho)]))
            lines.append(",".join([
                row.row_id, str(row.n), agg.metric_b.value, "pooled",
                _fmt(agg.pooled), str(sum(agg.counted_per_k.values())),
                str(sum(agg.skipped_per_k.values())), str(report.trials),
                str(report.seed), _fmt(report.params.epsilon), tau_echo,
                _fmt(report.params.rho)]))
    return "\n".join(lines)


def _cmd_compare(args) -> int:
    rows = [r.strip() for r in args.rows.split(",") if r.strip()]
    report = run_comparison(rows, trials=args.trials, seed=args.seed,
                            params=_params_from(args))
    _write_output(comparison_csv(report), args.out)
    violations = report.msup_violations()
    if violations:
        print("error: msup-equivalence-violated: " + ";".join(violations),
              file=sys.stderr)
        return 1
    return 0


def _cmd_path_theory(args) -> int:
    checks = path_theory_checks(args.n, k=args.k, eps=args.epsilon)
    payload = {
        "n": args.n,
        "k": args.k,
        "epsilon": args.epsilon,
        "checks": [{"id": c.check_id, "passed": c.passed,
                    "residual": c.residual, "detail": c.detail}
                   for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    if not payload["all_passed"]:
        failed = ",".join(c.check_id for c in checks if not c.passed)
        print(f"error: check-failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_lambda_profile(args) -> int:
    rows = lambda_profile(args.n, eps=args.epsilon, grid_step=args.grid_step)
    lines = [CSV_HEADER, "p,series_value,exact_value"]
    for (p, series, exact) in rows:
        lines.append(",".join([_fmt(p), _fmt(series),
                               "" if exact is None else _fmt(exact)]))
    _write_output("\n".join(lines), args.out)
    return 0


def _cmd_convexity(args) -> int:
    k_list = _parse_int_list(args.k, "--k")
    rows = convexity_table(args.n, k_list, eps=args.epsilon)
    lines = [CSV_HEADER,
             "k,lambda_min_opt,k_times_lambda1,best_ports,closed_form_ports"]
    for row in rows:
        lines.append(",".join([
            str(row["k"]), _fmt(row["lambda_min_opt"]),
            _fmt(row["k_times_lambda1"]),
            " ".join(str(p) for p in row["best_ports"]),
            "yes" if row["closed_form_ports"] else "no"]))
    _write_output("\n".join(lines), args.out)
    return 0


def _cmd_conjecture(args) -> int:
    n_list = _parse_int_list(args.n, "--n")
    reports = [conjecture_probe(n, eps=args.epsilon) for n in n_list]
    payload = reports[0] if len(reports) == 1 else reports
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-kcenter",
        description="Optimal k centers of a connected graph under spectral "
                    "perturbation metrics and control-theoretic heuristics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="score all k-subsets under one metric")
    p.add_argument("--graph", required=True,
                   help="path:n | fig1 | random-tree:n | random-graph:n,p | file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--metric", action="append", required=True,
                   help="mplse | msub | msup | eigvec | are | gramian (repeatable)")
    p.add_argument("--keep-table", action="store_true",
                   help="include the full per-subset score table")
    _add_common(p)
    _add_selection(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("compare", help="agreement table of all metrics vs mplse")
    p.add_argument("--rows", default="path:11,tree:7,tree:9,general:7,general:9",
                   help="comma-separated rows (path:n, tree:n, general:n)")
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)
    _add_selection(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("path-theory", help="run the path-graph oracle checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="also check the k-port formulas when k | n, n/k odd")
    _add_common(p)
    p.set_defaults(func=_cmd_path_theory)

    p = sub.add_parser("lambda-profile",
                       help="one-port eigenvalue shift profile on a path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-step", type=float, default=None,
                   help="real-valued sweep step for the series column")
    _add_common(p)
    p.set_defaults(func=_cmd_lambda_profile)

    p = sub.add_parser("convexity",
                       help="optimal shift per k vs the scaled one-port baseline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", default="1,2,3", help="comma-separated k values")
    _add_common(p)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("conjecture",
                       help="bridge two perturbed paths by every edge and "
                            "report the eigenvalue deviation")
    p.add_argument("--n", default="5,7,9", help="comma-separated odd orders")
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: parameter: {_oneline(exc)}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric: {_oneline(exc)}", file=sys.stderr)
        return 3


def _oneline(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
