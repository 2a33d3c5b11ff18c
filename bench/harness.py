"""One benchmark invocation: set-up timing, timed passes, output checks,
metrics and the result file. ``run.py`` is the entry point; it pins BLAS and
puts the tree's ``src/`` first on the path before this module is imported.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import spectral_kcenter
from check import check_selection
from probe import REF_UNIT_S, SpeedProbe
from tracing import Recorder
from workloads import WORKLOADS, digest, op_hash

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 424242
MIN_PASSES = 3
SETUP_REPEATS = 5
SETUP_PROBE_S = 0.15
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from spectral_kcenter import Metric, path_graph, select_best; "
               "select_best(path_graph(11), 1, Metric.MPLSE); "
               "import time; print(repr(time.monotonic()))")
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END = {
    "wall_s": "s", "subsets_per_s": "1/s", "select_ms_p50": "ms",
    "select_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
METRIC_VALUES = ("mplse", "msub", "msup", "eigvec", "are", "gramian")
PER_LAYER = {
    "graphs.instances": "count", "graphs.gen_ms": "ms",
    "metrics.select.calls": "count", "metrics.subsets": "count",
    **{f"metrics.us_per_subset.{m}": "us" for m in METRIC_VALUES},
    "metrics.select.self_ms": "ms", "metrics.eigvec.skipped": "count",
    "spectral.sym_eigen.calls": "count", "spectral.sym_eigen.us": "us",
    "spectral.eigh.us": "us", "spectral.sym_eigen.check_share": "ratio",
    "spectral.are.calls": "count", "spectral.are.us": "us",
    "spectral.ordqz.us": "us", "spectral.are.failed": "count",
    "spectral.gramian.us": "us", "spectral.lyapunov.us": "us",
    "experiments.run_comparison.self_ms": "ms",
    "experiments.select_reuse_ratio": "ratio",
    "experiments.path_checks.ms": "ms", "experiments.conjecture_probe.ms": "ms",
    "path_theory.calls": "count", "path_theory.us": "us",
    "cli.comparison_csv.ms": "ms", "trace.overhead_pct": "%",
    "ops_failed_pct": "%",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(prog="bench/run.py",
                                 description="Desk-scale benchmark of spectral_kcenter.")
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="length of the timed phase (default 35)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default-seed outputs as the reference")
    return ap.parse_args(argv)


# ---------------------------------------------------------------- provenance

def git_commit():
    """HEAD of the tree's own .git, read without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spectral_kcenter").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """OpenBLAS build and runtime thread count of NumPy and SciPy."""
    info = {}
    for pkg in (np, scipy):
        entry = {}
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            entry.update(name=blas.get("name"), version=blas.get("version"))
        except (KeyError, TypeError, ValueError):
            pass
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    entry["threads"] = int(fn())
                    break
        info[pkg.__name__] = entry
    return info


def provenance() -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "command": [Path(sys.orig_argv[0]).name, *sys.orig_argv[1:]],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


# --------------------------------------------------------------------- runs

def measure_setup(probe) -> tuple[list[float], list[float]]:
    """Seconds from spawning an interpreter to its first finished select_best,
    unscaled and scaled to the probe's reference speed.

    The probe cannot run inside the child, so each spawn is scaled by probe
    samples taken just before and just after it. That leaves the spread
    within a run but follows the host's slower swings, which move the
    median from one set of runs to the next. The first spawn is discarded:
    it may compile bytecode, which users pay once per install.
    """
    times, units = [], [probe.sample(SETUP_PROBE_S)]
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
                              cwd=ROOT, check=True, capture_output=True, text=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        units.append(probe.sample(SETUP_PROBE_S))
    scaled = [t * 2 * REF_UNIT_S / (a + b) for t, a, b in zip(times, units, units[1:])]
    return times[1:], scaled[1:]


@dataclass
class Pass:
    wall: float
    traced: bool
    ops: list
    selects: list
    spans: tuple[int, int]
    scale: float  # to the probe's reference speed
    probe_unit_s: float


def run_pass(workload, inputs, rec, probe, traced: bool) -> Pass:
    rec.set_tracing(traced)
    first_select, first_span = len(rec.selects), rec.span_count()
    probe_seconds, probe_units = probe.seconds, probe.units
    probe.arm()
    try:
        t0 = probe.clock()
        ops = workload.run_pass(inputs, rec)
        wall = probe.clock() - t0
    finally:
        probe.disarm()
    rec.set_tracing(False)
    unit = (probe.seconds - probe_seconds) / (probe.units - probe_units)
    keys = [op.key for op in ops]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{workload.name}: operation keys are not unique")
    return Pass(wall, traced, ops, rec.selects[first_select:],
                (first_span, rec.span_count()), REF_UNIT_S / unit, unit)


def mismatches(ops, expected: dict, known_failures=(), applies=lambda key: True) -> list[str]:
    """Keys whose output differs from the expected hash, or that are missing
    or extra, among the keys ``applies`` selects. An operation that failed in
    the reference may now succeed."""
    got = {op.key: op for op in ops if applies(op.key)}
    want = {key: h for key, h in expected.items() if applies(key)}
    bad = set(want) ^ set(got)
    for key in set(want) & set(got):
        op = got[key]
        if op_hash(op) != want[key] and not (key in known_failures and not op.failed):
            bad.add(key)
    return sorted(bad)


def check_outputs(workload, inputs, passes, rec, reference, seed) -> dict[str, list[str]]:
    """Everything found wrong with the run's outputs and counts, by kind.

    Outputs are checked against the reference wherever it applies (every
    output at the default seed, seed-independent ones at any seed); every
    pass against the first; and the first pass's selections and tables on
    their own.
    """
    applies = (lambda key: True) if seed == DEFAULT_SEED else workload.seed_free
    first = {op.key: op_hash(op) for op in passes[0].ops}
    problems = {
        "reference": mismatches(passes[0].ops, reference["ops"], set(reference["failed"]),
                                applies),
        "passes": sorted({key for p in passes[1:] for key in mismatches(p.ops, first)}),
        "selections": [f"{s.graph.n}-node {s.metric.value} k={s.k}: {msg}"
                       for s in passes[0].selects if (msg := check_selection(s))],
        "outputs": workload.check(inputs, passes[0].ops, passes[0].selects),
        "counts": [],
    }
    counts = [pass_counts(p, rec) for p in passes]
    shared = [{k: v for k, v in c.items() if not k.startswith("spans.")} for c in counts]
    traced = [c for c, p in zip(counts, passes) if p.traced]
    if any(c != shared[0] for c in shared):
        problems["counts"].append("select and operation counts differ between passes")
    if any(c != traced[0] for c in traced):
        problems["counts"].append("span counts differ between traced passes")
    if any(c.get("spans.metrics.select_best", 0) != c["metrics.select.calls"] for c in traced):
        problems["counts"].append("select_best spans do not match select_best calls")
    return problems


def pass_counts(p: Pass, rec) -> dict:
    counts = {
        "metrics.select.calls": len(p.selects),
        "metrics.subsets": sum(s.subsets for s in p.selects),
        "metrics.eigvec.skipped": sum(s.skipped for s in p.selects),
        "select.failed": sum(s.failed for s in p.selects),
        "ops": len(p.ops),
        "ops.failed": sum(op.failed for op in p.ops),
    }
    if p.traced:
        ids = rec.spans(*p.spans)["name"]
        for nid, n in enumerate(np.bincount(ids, minlength=len(rec.names))):
            counts[f"spans.{rec.names[nid]}"] = int(n)
    return counts


def tail_percentile(samples):
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p))
    return 50.0, float(np.percentile(samples, 50.0))


def end_to_end(passes, setup_times, peak_rss_mb, scaled=True) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, and notes on them.

    Times are scaled to the probe's reference speed unless ``scaled`` is
    false. Each select_best call of a pass has the same position in every pass; its
    latency is the median over the passes, and the p50 and tail are taken
    over those per-call medians, so the sample count is fixed by the
    workload, not by how many passes fit in the run.
    """
    plain = [p for p in passes if not p.traced]
    factor = [p.scale if scaled else 1.0 for p in plain]
    wall = statistics.median(p.wall * f for p, f in zip(plain, factor))
    subsets = sum(s.subsets for s in plain[0].selects)
    per_call = [statistics.median(p.selects[i].seconds * f for p, f in zip(plain, factor)) * 1e3
                for i, s in enumerate(plain[0].selects) if s.result is not None]
    tail_p, tail_ms = tail_percentile(per_call)
    values = {
        "wall_s": wall,
        "subsets_per_s": subsets / wall,
        "select_ms_p50": statistics.median(per_call),
        "select_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"select_ms_tail_percentile": tail_p,
             "select_latency_samples": len(per_call),
             "select_ms_tail_samples_beyond": len(per_call) * (100.0 - tail_p) / 100.0,
             "untraced_passes": len(plain)}
    return values, notes


def layer_metrics(p: Pass, rec, selections_read: int) -> dict:
    """Per-layer metrics of one traced pass, times scaled to the probe's
    reference speed. Times in ms are totals per pass; times in us are means
    per call, except us_per_subset, which is select_best time per subset
    scored."""
    S = rec.spans(*p.spans)

    def mask(*names, prefix=None):
        ids = [i for i, n in enumerate(rec.names)
               if n in names or (prefix is not None and n.startswith(prefix))]
        return np.isin(S["name"], ids)

    def total_ms(m):
        return 1e3 * float(S["dur"][m].sum())

    def mean_us(m):
        return 1e6 * float(S["dur"][m].mean()) if m.any() else 0.0

    sym = mask("spectral.sym_eigen")
    eigh = mask("spectral.eigh") & np.isin(S["parent"], np.nonzero(sym)[0])
    are = mask("spectral.are")
    theory = mask(prefix="path_theory.")
    sym_us, eigh_us = mean_us(sym), mean_us(eigh)
    out = {
        "graphs.instances": int(mask(prefix="graphs.").sum()),
        "graphs.gen_ms": total_ms(mask("graphs.random_tree", "graphs.random_connected_graph")),
        "metrics.select.calls": len(p.selects),
        "metrics.subsets": sum(s.subsets for s in p.selects),
        "metrics.select.self_ms": 1e3 * float(S["self"][mask("metrics.select_best")].sum()),
        "metrics.eigvec.skipped": sum(s.skipped for s in p.selects),
        "spectral.sym_eigen.calls": int(sym.sum()),
        "spectral.sym_eigen.us": sym_us,
        "spectral.eigh.us": eigh_us,
        "spectral.sym_eigen.check_share": 1.0 - eigh_us / sym_us if sym_us else 0.0,
        "spectral.are.calls": int(are.sum()),
        "spectral.are.us": mean_us(are),
        "spectral.ordqz.us": mean_us(mask("spectral.ordqz")),
        "spectral.are.failed": int(S["error"][are].sum()),
        "spectral.gramian.us": mean_us(mask("spectral.gramian")),
        "spectral.lyapunov.us": mean_us(mask("spectral.lyapunov")),
        "experiments.run_comparison.self_ms":
            1e3 * float(S["self"][mask("experiments.run_comparison")].sum()),
        "experiments.select_reuse_ratio":
            len(p.selects) / selections_read if selections_read else 0.0,
        "experiments.path_checks.ms": total_ms(mask("experiments.path_theory_checks")),
        "experiments.conjecture_probe.ms": total_ms(mask("experiments.conjecture_probe")),
        "path_theory.calls": int(theory.sum()),
        "path_theory.us": mean_us(theory),
        "cli.comparison_csv.ms": total_ms(mask("cli.comparison_csv")),
    }
    for m in METRIC_VALUES:
        done = [s for s in p.selects if s.metric.value == m and s.result is not None]
        subsets = sum(s.subsets for s in done)
        out[f"metrics.us_per_subset.{m}"] = (
            1e6 * sum(s.seconds for s in done) / subsets if subsets else 0.0)
    return {name: v * p.scale if PER_LAYER[name] in ("ms", "us") else v
            for name, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(spectral_kcenter.__file__).resolve().parent != (SRC / "spectral_kcenter").resolve():
        print(f"error: imported {spectral_kcenter.__file__}, not the tree's source",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ref_path = BENCH_DIR / "reference.json"
    reference_all = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    reference = reference_all.get("workloads", {}).get(workload.name)
    if reference is None and not args.write_reference:
        print(f"error: {ref_path} has no reference for {workload.name}", file=sys.stderr)
        return 2

    if args.write_reference and args.seed != DEFAULT_SEED:
        print(f"error: the reference is written at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    setup_raw, setup_scaled = measure_setup(probe)
    inputs = workload.make_inputs(args.seed)
    rec = Recorder(clock=probe.clock)
    passes = []
    try:
        t_begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            passes.append(run_pass(workload, inputs, rec, probe, traced))
            if len(passes) == 1:  # later passes add only the benchmark's records
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - t_begin
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > args.seconds:
                break
    finally:
        rec.close()

    if args.write_reference:
        ops = passes[0].ops
        reference = {"seed": DEFAULT_SEED, "digest": digest(ops),
                     "ops": {op.key: op_hash(op) for op in ops},
                     "failed": sorted(op.key for op in ops if op.failed)}
        reference_all.setdefault("workloads", {})[workload.name] = reference
        ref_path.write_text(json.dumps(reference_all, indent=1, sort_keys=True) + "\n")

    problems = check_outputs(workload, inputs, passes, rec, reference, args.seed)
    known = set(reference["failed"])
    fixed = sorted(op.key for op in passes[0].ops if op.key in known and not op.failed)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.failed for p in passes for op in p.ops) + sum(
        len(problems[kind]) for kind in ("reference", "passes", "selections", "outputs"))
    correct = not any(problems.values())
    ops_failed_pct = 100.0 * failed / attempted

    values, notes = end_to_end(passes, setup_scaled, peak_rss_mb)
    unscaled, _ = end_to_end(passes, setup_raw, peak_rss_mb, scaled=False)
    if args.trace:
        per_pass = [layer_metrics(p, rec, workload.selections_read(inputs))
                    for p in passes if p.traced]
        layers = {name: statistics.median(d[name] for d in per_pass) for name in per_pass[0]}
        layers.update((name, int(v)) for name, v in layers.items()
                      if PER_LAYER[name] == "count")  # counts repeat exactly
        traced_wall = statistics.median(p.wall * p.scale for p in passes if p.traced)
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / values["wall_s"] - 1.0)
        layers["ops_failed_pct"] = ops_failed_pct
        values.update(layers)
    shown = PER_LAYER if args.trace else END_TO_END
    metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in shown.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (stem.parent / (stem.name + "-outputs.txt")).write_text(
        "".join(f"{op.key}\t{op.line}\n" for op in sorted(passes[0].ops, key=lambda o: o.key)))
    if args.trace:
        rec.save_spans(stem.parent / (stem.name + "-spans.npz"))
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "ops_failed_pct": ops_failed_pct,
        "digest": digest(passes[0].ops), "reference_seed": DEFAULT_SEED,
        "reference_digest": reference["digest"],
        "problems": problems, "known_failures_now_passing": fixed,
        "passes": [{"wall_s": p.wall, "scale": p.scale, "probe_unit_s": p.probe_unit_s,
                    "traced": p.traced} for p in passes],
        "setup_s_samples": setup_scaled, "setup_s_unscaled_samples": setup_raw,
        "unscaled_metrics": unscaled,
        "counts": pass_counts(passes[0], rec),
        **notes,
        "metrics": {name: {"value": v, "unit": {**END_TO_END, **PER_LAYER}[name]}
                    for name, v in values.items()},
    }
    (stem.parent / (stem.name + ".json")).write_text(json.dumps(result, indent=1) + "\n")

    print(f"{workload.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"correct={correct} attempted={attempted} failed={failed} "
          f"ops_failed_pct={ops_failed_pct:.4g}")
    scope = "all outputs" if args.seed == DEFAULT_SEED else "seed-independent outputs"
    print(f"digest {result['digest']} ({scope} "
          f"{'match' if not problems['reference'] else 'DIFFER from'} the reference)")
    for kind, items in problems.items():
        for item in items[:10]:
            print(f"problem [{kind}] {item}")
    print(f"select_ms_tail is p{notes['select_ms_tail_percentile']:g} of "
          f"{notes['select_latency_samples']} per-call median latencies "
          f"({notes['select_ms_tail_samples_beyond']:.1f} beyond it)")
    for name, m in metrics_out.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"result file {stem.relative_to(ROOT)}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0
