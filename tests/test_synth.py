import hashlib
import re

import numpy as np
import pytest

from dxtraj import synth
from dxtraj.cli import main
from dxtraj.ehr_data import filter_cohort
from dxtraj.synth import (
    SynthSpec,
    generate_cohort,
    identity_ccs_map,
    oracle_recall,
)


def test_same_seed_identical_cohorts():
    spec = SynthSpec(n_patients=30, vocab_size=50, n_states=5, seed=12)
    a = generate_cohort(spec)
    b = generate_cohort(spec)
    assert len(a) == len(b) == 30
    for pa, pb in zip(a, b):
        assert pa.patient_id == pb.patient_id
        assert [x.codes for x in pa.admissions] == [x.codes for x in pb.admissions]
        assert [x.timestamp for x in pa.admissions] == \
            [x.timestamp for x in pb.admissions]


def test_different_seed_differs():
    a = generate_cohort(SynthSpec(n_patients=30, vocab_size=50, seed=1))
    b = generate_cohort(SynthSpec(n_patients=30, vocab_size=50, seed=2))
    assert any(pa.admissions[0].codes != pb.admissions[0].codes
               for pa, pb in zip(a, b))


def test_planted_determinism_noise_free():
    # deterministic kernel A->B->A with fixed code sets: every admission after
    # the first is exactly predictable from its predecessor
    spec = SynthSpec(
        n_patients=20, vocab_size=30, noise_rate=0.0, seed=3,
        transition_kernel={0: 1, 1: 0},
        codes_per_state={0: list(range(13)), 1: list(range(13, 26))})
    successor = {frozenset(range(13)): set(range(13, 26)),
                 frozenset(range(13, 26)): set(range(13))}
    for p in generate_cohort(spec):
        for i in range(len(p.admissions) - 1):
            assert p.admissions[i + 1].codes == \
                successor[frozenset(p.admissions[i].codes)]


def test_all_patients_pass_filtering_unchanged():
    cohort = generate_cohort(SynthSpec(n_patients=200, vocab_size=60,
                                       n_states=6, noise_rate=0.2, seed=8))
    kept, report = filter_cohort(cohort)
    assert len(kept) == 200
    assert report.admissions_empty_codes == 0
    assert report.admissions_negative_duration == 0
    for p in cohort:
        assert len(p.admissions) >= 2
        ts = [a.timestamp for a in p.admissions]
        assert ts == sorted(ts)
        assert all(a.duration >= 0 for a in p.admissions)


def test_mean_codes_per_admission_near_target():
    cohort = generate_cohort(SynthSpec(n_patients=5000, vocab_size=271,
                                       n_states=25, seed=5))
    sizes = [len(a.codes) for p in cohort for a in p.admissions]
    assert abs(np.mean(sizes) - 13) <= 1.0


def test_admission_counts_skewed_and_bounded():
    cohort = generate_cohort(SynthSpec(n_patients=3000, vocab_size=40,
                                       n_states=4, seed=9))
    counts = [len(p.admissions) for p in cohort]
    assert min(counts) == 2
    assert max(counts) <= 42
    # skewed: two-admission patients dominate
    assert counts.count(2) > len(counts) * 0.25
    assert np.mean(counts) < 8


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(noise_rate=1.0)
    with pytest.raises(ValueError):
        generate_cohort(SynthSpec(vocab_size=5, noise_rate=0.0,
                                  transition_kernel={0: 0},
                                  codes_per_state={0: [7]}))


@pytest.mark.parametrize("field, value", [
    ("n_patients", 0), ("n_patients", -3), ("vocab_size", 0), ("n_states", 0),
])
def test_spec_rejects_sizes_below_one(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
        SynthSpec(**{field: value})


@pytest.mark.parametrize("field", ["n_patients", "vocab_size", "n_states"])
def test_spec_rejects_sizes_numpy_cannot_index(field):
    SynthSpec(**{field: 2**63 - 1})
    message = f"{field} must be <= 2**63 - 1, got {2**63}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SynthSpec(**{field: 2**63})


def test_oracle_noise_free_is_perfect():
    spec = SynthSpec(n_patients=50, vocab_size=80, n_states=5,
                     noise_rate=0.0, seed=2)
    cohort = generate_cohort(spec)
    assert oracle_recall(spec, cohort, 30) == 1.0


def test_oracle_ceiling_decreases_with_noise():
    ceilings = []
    for rate in (0.0, 0.2, 0.5):
        spec = SynthSpec(n_patients=300, vocab_size=120, n_states=8,
                         noise_rate=rate, seed=6)
        cohort = generate_cohort(spec)
        ceilings.append(oracle_recall(spec, cohort, 20))
    assert ceilings[0] > ceilings[1] > ceilings[2]


def reference_oracle_recall(spec, cohort, k):
    """The per-transition loop oracle_recall replaced: 0/1 scores on the
    next state's codes, ranked by a sort (score descending, then index)."""
    _, kernel, codes_per_state = synth._resolve(spec)
    values = []
    for p in cohort:
        for a, b in zip(p.admissions, p.admissions[1:]):
            state = synth._infer_state(a.codes, codes_per_state)
            scores = np.zeros(spec.vocab_size)
            scores[codes_per_state[kernel[state]]] = 1.0
            order = sorted(range(spec.vocab_size),
                           key=lambda i: (-scores[i], i))
            values.append(len(set(order[:k]) & b.codes) / len(b.codes))
    return float(np.mean(values))


@pytest.mark.parametrize("k", [1, 5, 13, 20, 40, 60])
def test_oracle_recall_equals_sorted_reference(k):
    # 0/1 scores tie at every place past the predicted codes; noise puts
    # targets among the ties, so the index order decides the hits there
    spec = SynthSpec(n_patients=60, vocab_size=60, n_states=6,
                     noise_rate=0.3, seed=3)
    cohort = generate_cohort(spec)
    assert oracle_recall(spec, cohort, k) == reference_oracle_recall(
        spec, cohort, k)


def test_identity_ccs_map():
    spec = SynthSpec(n_patients=1, vocab_size=10)
    ccs = identity_ccs_map(spec)
    assert ccs.mapping["3"] == "3"
    assert len(ccs.mapping) == 10


def test_default_synth_cohort_bytes_are_pinned(tmp_path):
    # a new SynthSpec field must keep the draws of its default, so that
    # committed cohorts, benchmark workloads and checkpoint hashes stay
    out = tmp_path / "cohort.jsonl"
    assert main(["--quiet", "synth", "--patients", "30", "--vocab-size", "40",
                 "--states", "4", "--noise-rate", "0.2", "--seed", "9",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9c962c5f2e7024a5dc274f7c79debd4a32cddeff544925954fe79fa137186749")
