"""Recall@k, the untrained random baseline, and comparison grids over cell
kinds / layer counts / node counts / extra features."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import network
from .ehr_data import CodeVocabulary, build_batch
from .network import ModelParams
from .numerics import SeededRng


@dataclass
class RecallResult:
    k: int
    values: list  # one recall per (patient, transition) prediction
    mean: float


@dataclass
class GridRow:
    label: str
    config: dict
    recall: dict = field(default_factory=dict)  # k -> mean over seeds
    iterations: float = 0.0
    time_s: float = 0.0
    failed: bool = False
    error: str = ""


def recall_at_k(yhat: np.ndarray, target_codes, k: int) -> float:
    """|top-k(yhat) intersect target| / |target|, ranked as top_k_hits
    ranks one row."""
    target_codes = set(target_codes)
    if not target_codes:
        raise ValueError("empty target code set")
    yhat = np.asarray(yhat, dtype=np.float64).reshape(1, -1)
    if not (1 <= k <= yhat.size):
        raise ValueError(f"k={k} out of range [1, {yhat.size}]")
    targets = np.isin(np.arange(yhat.size), list(target_codes))[None]
    return float(top_k_hits(yhat, targets, k)[0]) / len(target_codes)


def top_k_hits(yhat: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Per row, the sum of targets over the k highest entries of yhat, ties
    at the k-th value taken by ascending code index, as in rank_codes: the
    one top-k rule of recall, the baselines and the oracle.

    One partition per row finds the k-th value; every entry above it is in,
    and only the rows with more entries equal to it than places left rank
    those by index."""
    kth = -np.partition(-yhat, k - 1, axis=1)[:, k - 1:k]
    top = yhat > kth
    tied = yhat == kth
    left = k - top.sum(axis=1)
    over = np.flatnonzero(tied.sum(axis=1) > left)
    top |= tied
    if over.size:
        sub = tied[over]
        top[over] &= ~(sub & (np.cumsum(sub, axis=1) > left[over, None]))
    return np.sum(targets * top, axis=1)


def recall_rows(yhat: np.ndarray, targets: np.ndarray, ks) -> dict:
    """{k: RecallResult} of the rows of yhat (n, |D|) against the multi-hot
    rows of targets (uint8, as build_batch writes them, or float): each
    row's top-k hits over its number of targets. Both counts are exact
    integers in either dtype, so the recalls have the same bits."""
    n_targets = targets.sum(axis=1)
    if ks and not n_targets.all():
        raise ValueError("empty target code set")
    results = {}
    for k in ks:
        if not (1 <= k <= yhat.shape[1]):
            raise ValueError(f"k={k} out of range [1, {yhat.shape[1]}]")
        v = (top_k_hits(yhat, targets, k) / n_targets).tolist()
        results[k] = RecallResult(k=k, values=v,
                                  mean=float(np.mean(v)) if v else 0.0)
    return results


def batch_recall(model: ModelParams, batch, ks) -> dict:
    """{k: RecallResult} of the model's predictions at the batch's cells."""
    return recall_rows(network.forward(batch, model)["yhat_rows"],
                       batch.target_rows, ks)


def evaluate_model(model: ModelParams, patients, vocab: CodeVocabulary,
                   ks=(10, 20, 30)) -> dict:
    """Mean Recall@k over every (patient, transition) pair, one sample per
    transition, all samples weighted equally. values are ordered by step,
    then by patient. The features are normalised by the model's stored
    constants, as in training and serving. Every k must lie in [1, |D|]."""
    if not patients:
        raise ValueError("empty evaluation cohort")
    batch = build_batch(patients, vocab, model.extras, model.duration_max,
                        model.interval_max)
    return batch_recall(model, batch, ks)


def random_baseline(patients, vocab: CodeVocabulary, rng: SeededRng,
                    ks=(10, 20, 30)) -> dict:
    """Recall of uniformly random scores, one fresh draw of |D| scores per
    transition, patient by patient."""
    ks = [k for k in ks if 1 <= k <= len(vocab)]
    nexts = [a.codes for p in patients for a in p.admissions[1:]]
    targets = np.zeros((len(nexts), len(vocab)), dtype=np.uint8)
    for row, codes in enumerate(nexts):
        targets[row, [vocab.index[c] for c in codes]] = 1
    return recall_rows(rng.uniform(targets.shape), targets, ks)


def run_comparison(cohort, grid_spec: list, seeds, ks=(10, 20, 30)) -> list:
    """Train/evaluate every grid configuration on every seed and average.

    grid_spec rows are dicts of TrainConfig overrides, plus optional keys
    "label" and "random_baseline": true for the untrained-scores row, which
    scores the held-out side of training.split() under the same config. A
    configuration that fails on bad input or diverges yields a marked row
    instead of aborting the grid; any other exception is raised.
    """
    from .training import TrainConfig, TrainingDivergedError, split, train
    from .ehr_data import build_vocabulary

    rows = []
    for idx, spec in enumerate(grid_spec):
        spec = dict(spec)
        label = str(spec.pop("label", f"config-{idx}"))
        is_random = spec.pop("random_baseline", False)
        row = GridRow(label=label, config=dict(spec))
        try:
            per_seed = []
            times = []
            iters = []
            for seed in seeds:
                t0 = time.perf_counter()
                config = TrainConfig.from_dict({**spec, "seed": int(seed)})
                if is_random:
                    _, test, _ = split(cohort, config)
                    res = random_baseline(test, build_vocabulary(cohort),
                                          SeededRng(config.seed), ks=ks)
                    means = {k: r.mean for k, r in res.items()}
                    iters.append(1)
                else:
                    model, report = train(cohort, config)
                    means = {k: report.recall[k] for k in ks
                             if k in report.recall}
                    iters.append(report.iterations)
                times.append(time.perf_counter() - t0)
                per_seed.append(means)
            row.recall = {
                k: float(np.mean([s[k] for s in per_seed if k in s]))
                for k in ks if any(k in s for s in per_seed)
            }
            row.iterations = float(np.mean(iters))
            row.time_s = float(np.mean(times))
        except (OSError, ValueError, TrainingDivergedError) as exc:
            row.failed = True
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def grid_to_csv(rows) -> str:
    ks = sorted({k for r in rows for k in r.recall})
    header = ["label"] + [f"recall@{k}" for k in ks] + \
        ["iterations", "time_s", "failed"]
    lines = [",".join(header)]
    for r in rows:
        cells = [r.label]
        cells += [f"{r.recall[k]:.4f}" if k in r.recall else "" for k in ks]
        cells += [f"{r.iterations:g}", f"{r.time_s:.2f}", str(r.failed).lower()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def grid_to_json(rows) -> list:
    return [
        {
            "label": r.label, "config": r.config,
            "recall": {str(k): v for k, v in r.recall.items()},
            "iterations": r.iterations, "time_s": r.time_s,
            "failed": r.failed, "error": r.error,
        }
        for r in rows
    ]
