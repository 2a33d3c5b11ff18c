"""Seed-independent checks of select_best results.

The committed reference covers only the default seed, so every recorded
selection is also checked on its own:

- ``best`` is the first of ``ties``, ties are sorted and distinct, and each
  is a k-subset of 1..n;
- the public single-subset score functions give ``best`` and the last tie
  scores that tie with ``score`` (``score`` is the optimum over the ties, so
  it need not be the score of ``best`` itself);
- for mplse, msub, msup and eigvec, an independent batched NumPy scorer over
  every k-subset finds no better optimum than ``score``.

The comparison CSV is checked by rebuilding the agreement table from the
recorded selections over regenerated instances.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

import numpy as np

from spectral_kcenter.experiments import HEURISTIC_METRICS
from spectral_kcenter.graphs import (laplacian, path_graph, random_connected_graph,
                                     random_tree, stochastic)
from spectral_kcenter.metrics import (Metric, eigvec_heuristic_score, mplse_score,
                                      msub_score, msup_score)
from spectral_kcenter.spectral import are_charging_energy, gramian_extraction_energy

from tracing import SelectCall

MAXIMIZING = {Metric.MPLSE, Metric.GRAMIAN}
# select_best's tie rule: |a - b| <= 1e-9 max(1, |a|, |b|)
TIE_RTOL = 1e-9
# agreement demanded of the batched scorer's optimum (another LAPACK
# routine), far inside the tie tolerance
BATCH_RTOL = 1e-10


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _score_one(call: SelectCall, ports) -> float:
    g, p = call.graph, call.params
    return {
        Metric.MPLSE: lambda: mplse_score(g, ports, p),
        Metric.MSUB_LE: lambda: msub_score(g, ports, p),
        Metric.MSUP_LE: lambda: msup_score(g, ports, p),
        Metric.EIGVEC: lambda: eigvec_heuristic_score(g, ports, call.k),
        Metric.ARE: lambda: are_charging_energy(laplacian(g), ports, p.rho),
        Metric.GRAMIAN: lambda: gramian_extraction_energy(laplacian(g), ports),
    }[call.metric]()


def _batched_scores(call: SelectCall) -> Optional[np.ndarray]:
    """Scores of every k-subset in lexicographic order, or None for ARE and
    Gramian, which have no batched reference."""
    g, k, p = call.graph, call.k, call.params
    idx = np.array(list(itertools.combinations(range(g.n), k)))
    rows = np.arange(len(idx))[:, None]
    if call.metric in (Metric.MPLSE, Metric.MSUP_LE):
        if call.metric is Metric.MPLSE:
            base, pick = laplacian(g), 0
        else:
            base, pick = stochastic(g, p.tau_for(g)), -1
        mats = np.repeat(base[None], len(idx), axis=0)
        mats[rows, idx, idx] += p.epsilon
        return np.linalg.eigvalsh(mats)[:, pick]
    if call.metric is Metric.MSUB_LE:
        Z = stochastic(g, p.tau_for(g))
        member = np.zeros((len(idx), g.n), dtype=bool)
        member[rows, idx] = True
        keep = np.nonzero(~member)[1].reshape(len(idx), g.n - k)
        return np.linalg.eigvalsh(Z[keep[:, :, None], keep[:, None, :]])[:, -1]
    if call.metric is Metric.EIGVEC:
        mags = np.abs(np.linalg.eigh(laplacian(g))[1][:, k])
        return mags[idx].sum(axis=1)
    return None


def check_selection(call: SelectCall) -> Optional[str]:
    """A description of what is wrong with a recorded result, or None."""
    res = call.result
    if res is None:
        return None
    n, k = call.graph.n, call.k
    ties = res.ties
    if not ties or res.best != ties[0] or any(a >= b for a, b in zip(ties, ties[1:])):
        return "best is not the first of sorted, distinct ties"
    if any(len(S) != k or S[0] < 1 or S[-1] > n or list(S) != sorted(set(S))
           for S in ties):
        return "a tie is not a k-subset of 1..n"
    if not np.isfinite(res.score):
        return f"score {res.score} is not finite"
    for S in dict.fromkeys((res.best, ties[-1])):
        rescored = _score_one(call, S)
        if not _close(rescored, res.score, TIE_RTOL):
            return f"{S} re-scores to {rescored!r}, not a tie with {res.score!r}"
    batch = _batched_scores(call)
    if batch is not None:
        opt = float(batch.max() if call.metric in MAXIMIZING else batch.min())
        if not _close(opt, res.score, BATCH_RTOL):
            return f"batched optimum {opt!r} differs from score {res.score!r}"
    return None


def _row_instance(row: str, seed: int, row_index: int, trial: int):
    """The comparison's instance for (row, trial): paths are fixed, trees and
    G(n, 0.4) graphs are drawn from SeedSequence([seed, row, trial])."""
    kind, n = row.split(":")
    child = int(np.random.SeedSequence([seed, row_index, trial]).generate_state(1)[0])
    if kind == "path":
        return path_graph(int(n))
    if kind == "tree":
        return random_tree(int(n), child)
    return random_connected_graph(int(n), 0.4, child)


def check_comparison(csv: str, selects: list[SelectCall], rows, trials: int,
                     seed: int, k_list) -> list[str]:
    """Cells of the comparison CSV that differ from the agreement table
    rebuilt from the recorded selections."""
    chosen = {(s.graph.n, s.graph.edges, s.k, s.metric): s for s in selects}
    want = {}
    for r, row in enumerate(rows):
        instances = [_row_instance(row, seed, r, t) for t in range(trials)]
        n = str(instances[0].n)
        for metric in HEURISTIC_METRICS:
            agree, counted, skipped = Counter(), Counter(), Counter()
            for g in instances:
                for k in k_list:
                    pair = [chosen.get((g.n, g.edges, k, m)) for m in (Metric.MPLSE, metric)]
                    if None in pair:
                        return [f"{row} {metric.value} k={k}: no select_best call recorded"]
                    if any(s.skipped for s in pair):
                        skipped[k] += 1
                        continue
                    counted[k] += 1
                    agree[k] += pair[0].result.best == pair[1].result.best
            cells = [(str(k), agree[k], counted[k], skipped[k]) for k in k_list]
            cells.append(("pooled", sum(agree.values()), sum(counted.values()),
                          sum(skipped.values())))
            for k, a, c, s in cells:
                pct = f"{100.0 * a / c:.12g}" if c else "nan"
                want[(row, n, metric.value, k)] = [pct, str(c), str(s), str(trials), str(seed)]
    got = {}
    for line in csv.splitlines()[2:]:
        cols = line.split(",")
        got[tuple(cols[:4])] = cols[4:9]
    return [f"csv {','.join(key)}: {got.get(key)} != {value}"
            for key, value in want.items() if got.get(key) != value] + (
        ["csv has rows the rebuilt table lacks"] if set(got) - set(want) else [])
