"""Command-line surface.

Subcommands: select | compare | path-theory | lambda-profile | convexity |
conjecture. Each command returns its output text and, when its checks or
report invariants fail, a failure (kind, reason); ``main`` alone writes the
output, prints the one ``error: <kind>: <reason>`` line on stderr and picks
the exit code: 0 success, 1 failed checks or violated report invariants, 2
parameter errors (argument errors included), 3 numerical errors. No NumPy
warning is printed before that line. Identical config and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

from .errors import NumericError, ParameterError
from .experiments import (ComparisonReport, check_probe_order, conjecture_probe,
                          convexity_table, lambda_profile, parse_graph_source,
                          path_theory_checks, run_comparison)
from .metrics import Metric, MetricParams, select_best

CSV_HEADER = "# spectral-kcenter v1"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_output(text: str, out: Optional[str]):
    if not text.endswith("\n"):
        text += "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {out!r}: {exc.strerror}")


def _check_out(out: Optional[str]):
    """Reject an --out target that cannot be written as a file, before the
    command computes anything; other write failures surface in _write_output."""
    if out in (None, "-"):
        return
    path = Path(out)
    if path.is_dir():
        raise ParameterError(f"--out {out!r} is a directory")
    if not path.parent.is_dir():
        raise ParameterError(f"--out {out!r}: {str(path.parent)!r} is not an existing directory")


def _params_from(args) -> MetricParams:
    return MetricParams(epsilon=args.epsilon, tau=args.tau, rho=args.rho)


def _parse_list(text: str, flag: str) -> list[str]:
    """The non-blank comma-separated pieces of ``text``, at least one."""
    out = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not out:
        raise ParameterError(f"{flag} list is empty")
    return out


def _parse_int_list(text: str, flag: str) -> list[int]:
    out = []
    for piece in _parse_list(text, flag):
        try:
            out.append(int(piece))
        except ValueError:
            raise ParameterError(f"{flag} expects comma-separated integers, "
                                 f"got {piece!r}")
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


def _json(records: list) -> str:
    """One record as a JSON object, several as a list."""
    return json.dumps(records[0] if len(records) == 1 else records, indent=2,
                      sort_keys=True)


def _csv(header: str, rows: Iterable[list[str]]) -> str:
    """The schema comment, the header line and one line per row of cells."""
    return "\n".join([CSV_HEADER, header, *(",".join(row) for row in rows)])


def _cmd_select(args) -> tuple[str, Optional[tuple[str, str]]]:
    g = parse_graph_source(args.graph, args.seed)
    params = _params_from(args)
    tau = params.tau_for(g)  # checked before the first selection
    metrics = [Metric.parse(name) for name in args.metric]  # so is every metric
    results = []
    for metric in metrics:
        res = select_best(g, args.k, metric, params, keep_table=args.keep_table)
        obj = {
            "metric": metric.value,
            "k": res.k,
            "epsilon": params.epsilon,
            "tau": tau,
            "best": list(res.best),
            "score": res.score,
            "ties": [list(t) for t in res.ties],
        }
        if res.table is not None:
            obj["table"] = [[list(s), v] for (s, v) in res.table]
        results.append(obj)
    return _json(results), None


def comparison_csv(report: ComparisonReport) -> str:
    tau_echo = "1/(maxdeg+1)" if report.params.tau is None else _fmt(report.params.tau)
    tail = [str(report.trials), str(report.seed), _fmt(report.params.epsilon),
            tau_echo, _fmt(report.params.rho)]
    lines = []
    for row in report.rows:
        for agg in row.agreements:
            cells = [(str(k), agg.per_k[k], agg.counted_per_k[k], agg.skipped_per_k[k])
                     for k in agg.per_k]
            cells.append(("pooled", agg.pooled, sum(agg.counted_per_k.values()),
                          sum(agg.skipped_per_k.values())))
            lines.extend([row.row_id, str(row.n), agg.metric_b.value, k, _fmt(pct),
                          str(counted), str(skipped), *tail]
                         for k, pct, counted, skipped in cells)
    return _csv("graph_class,n,metric,k,agreement_pct,counted,skipped,trials,seed,"
                "epsilon,tau,rho", lines)


def _cmd_compare(args) -> tuple[str, Optional[tuple[str, str]]]:
    rows = _parse_list(args.rows, "--rows")
    report = run_comparison(rows, trials=args.trials, seed=args.seed,
                            params=_params_from(args))
    violations = report.msup_violations()
    failure = ("msup-equivalence-violated", ";".join(violations)) if violations else None
    return comparison_csv(report), failure


def _cmd_path_theory(args) -> tuple[str, Optional[tuple[str, str]]]:
    checks = path_theory_checks(args.n, k=args.k, eps=args.epsilon)
    failed = [c.check_id for c in checks if not c.passed]
    failure = ("check-failed", ",".join(failed)) if failed else None
    return _json([{
        "n": args.n,
        "k": args.k,
        "epsilon": args.epsilon,
        "checks": [{"id": c.check_id, "passed": c.passed,
                    "residual": c.residual, "detail": c.detail}
                   for c in checks],
        "all_passed": not failed,
    }]), failure


def _cmd_lambda_profile(args) -> tuple[str, Optional[tuple[str, str]]]:
    rows = lambda_profile(args.n, eps=args.epsilon, grid_step=args.grid_step)
    return _csv("p,series_value,exact_value",
                ([_fmt(p), _fmt(series), "" if exact is None else _fmt(exact)]
                 for (p, series, exact) in rows)), None


def _cmd_convexity(args) -> tuple[str, Optional[tuple[str, str]]]:
    k_list = _parse_int_list(args.k, "--k")
    rows = convexity_table(args.n, k_list, eps=args.epsilon)
    return _csv("k,lambda_min_opt,k_times_lambda1,best_ports,closed_form_ports",
                ([str(row["k"]), _fmt(row["lambda_min_opt"]),
                  _fmt(row["k_times_lambda1"]),
                  " ".join(str(p) for p in row["best_ports"]),
                  "yes" if row["closed_form_ports"] else "no"]
                 for row in rows)), None


def _cmd_conjecture(args) -> tuple[str, Optional[tuple[str, str]]]:
    n_list = _parse_int_list(args.n, "--n")
    for n in n_list:
        check_probe_order(n)
    return _json([conjecture_probe(n, eps=args.epsilon) for n in n_list]), None


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
                   help="score every port set, skipping none whatever the "
                        "metric, and include the full per-subset score table")
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
    """Run one command: write its output, then print at most one
    ``error: <kind>: <reason>`` line and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        text, failure = args.func(args)
        _write_output(text, args.out)
        code = 1  # a failure the command returned: failed checks
    except ParameterError as exc:
        failure, code = ("parameter", exc), 2
    except NumericError as exc:
        failure, code = ("numeric", exc), 3
    if failure is None:
        return 0
    kind, reason = failure
    print(f"error: {kind}: {' '.join(str(reason).split())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
