"""Seeded synthetic cohort generator with a planted, learnable latent-state
transition structure, plus a kernel-aware oracle giving the best achievable
Recall@k on a generated cohort.

Patients walk a deterministic latent-state kernel; each admission emits the
current state's code subset plus optional uniform noise codes. Distribution
targets at default settings: ~13 codes per admission and a skewed admission
count (geometric, truncated to [2, 42])."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ehr_data import ADMISSION_TYPES, Admission, CcsMap, PatientRecord
from .evaluation import recall_rows
from .numerics import SeededRng

MAX_ADMISSIONS = 42
# the largest size numpy can index or draw from
MAX_SIZE = 2**63 - 1


@dataclass
class SynthSpec:
    n_patients: int = 100
    vocab_size: int = 271
    mean_codes_per_admission: int = 13
    admission_geometric_p: float = 0.35  # skewed count, truncated to [2, 42]
    n_states: int = 10
    transition_kernel: dict | None = None  # state -> next state
    codes_per_state: dict | None = None    # state -> sorted list of code ints
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_patients", "vocab_size", "n_states"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            if value > MAX_SIZE:
                raise ValueError(f"{name} must be <= 2**63 - 1, got {value}")
        if not (0.0 <= self.noise_rate < 1.0):
            raise ValueError(f"noise_rate must be in [0, 1), "
                             f"got {self.noise_rate}")


def _default_structure(spec: SynthSpec, rng: SeededRng):
    """Random code subsets per state and a deterministic cyclic-random kernel."""
    codes_per_state = {}
    for s in range(spec.n_states):
        size = max(1, int(round(
            rng.normal(2.0, ()) + spec.mean_codes_per_admission)))
        size = min(size, spec.vocab_size)
        codes_per_state[s] = sorted(
            int(c) for c in rng.choice(spec.vocab_size, size=size, replace=False))
    # a random permutation makes every state reachable and the walk aperiodic
    # only through its cycle structure; determinism is what matters
    perm = rng.permutation(spec.n_states)
    kernel = {s: int(perm[s]) for s in range(spec.n_states)}
    return kernel, codes_per_state


def _resolve(spec: SynthSpec):
    rng = SeededRng(spec.seed)
    kernel = spec.transition_kernel
    codes = spec.codes_per_state
    if kernel is None or codes is None:
        dk, dc = _default_structure(spec, rng.spawn(1))
        kernel = kernel if kernel is not None else dk
        codes = codes if codes is not None else dc
    for s, cs in codes.items():
        if max(cs) >= spec.vocab_size:
            raise ValueError(
                f"state {s} uses code {max(cs)} >= vocab_size {spec.vocab_size}")
    return rng, kernel, codes


def _admission_count(rng: SeededRng, p: float) -> int:
    n = 2 + int(np.floor(np.log(1.0 - float(rng.uniform(()))) / np.log(1.0 - p)))
    return min(n, MAX_ADMISSIONS)


def generate_cohort(spec: SynthSpec) -> list:
    """Deterministic per seed; every generated patient passes filter_cohort
    unchanged (>= 2 admissions, non-empty codes, non-negative durations)."""
    rng, kernel, codes_per_state = _resolve(spec)
    states = sorted(codes_per_state)
    patients = []
    for pid in range(spec.n_patients):
        n_adm = _admission_count(rng, spec.admission_geometric_p)
        state = states[int(rng.integers(0, len(states)))]
        timestamp = 1_000_000_000 + int(rng.integers(0, 10_000_000))
        admissions = []
        for _ in range(n_adm):
            base = codes_per_state[state]
            code_set = set(base)
            if spec.noise_rate > 0:
                n_noise = rng.binomial(len(base), spec.noise_rate)
                pool = [c for c in range(spec.vocab_size) if c not in code_set]
                if n_noise > 0 and pool:
                    picked = rng.choice(len(pool), size=min(n_noise, len(pool)),
                                        replace=False)
                    code_set.update(pool[int(i)] for i in np.atleast_1d(picked))
            duration = float(6.0 + 90.0 * float(rng.uniform(())))
            adm_type = ADMISSION_TYPES[int(rng.integers(0, 4))]
            admissions.append(Admission(
                timestamp=timestamp,
                codes=code_set,
                adm_type=adm_type,
                duration=duration,
            ))
            timestamp += int(86_400 * (1 + int(rng.integers(0, 120))))
            state = kernel[state]
        patients.append(PatientRecord(f"synth-{pid:06d}", admissions))
    return patients


def identity_ccs_map(spec: SynthSpec) -> CcsMap:
    """CCS map where each synthetic code maps to itself (as strings)."""
    return CcsMap(
        mapping={str(c): str(c) for c in range(spec.vocab_size)},
        labels={str(c): f"synthetic condition {c}" for c in range(spec.vocab_size)},
    )


def _infer_state(code_set, codes_per_state):
    """Latent state of an admission: the state whose code subset overlaps most
    (noise only adds codes, so the true state's subset is fully contained)."""
    best, best_score = None, -1.0
    for s in sorted(codes_per_state):
        cs = codes_per_state[s]
        inter = len(code_set.intersection(cs))
        score = inter / len(cs)
        if score > best_score:
            best, best_score = s, score
    return best


def oracle_recall(spec: SynthSpec, cohort, k: int) -> float:
    """Best achievable mean Recall@k given the true generating structure.

    The oracle identifies each admission's latent state, ranks the next
    state's codes first (ascending), then all remaining codes ascending.
    Noise codes in the target are unpredictable, which is what caps recall
    below 1 for noise_rate > 0.
    """
    _, kernel, codes_per_state = _resolve(spec)
    pairs = [(a, b) for p in cohort
             for a, b in zip(p.admissions, p.admissions[1:])]
    scores = np.zeros((len(pairs), spec.vocab_size))
    targets = np.zeros(scores.shape, dtype=np.uint8)
    for row, (a, b) in enumerate(pairs):
        state = _infer_state(a.codes, codes_per_state)
        scores[row, codes_per_state[kernel[state]]] = 1.0
        targets[row, list(b.codes)] = 1
    return recall_rows(scores, targets, [k])[k].mean
