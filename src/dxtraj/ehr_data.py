"""Patient/admission data model, ICD-9 -> CCS mapping, cohort filtering, and
padded multi-hot batch construction with masks.

File formats:
  * patients: JSON lines, one object per patient:
      {"patient_id": str, "admissions": [{"timestamp": int, "icd9": [str],
       "type": str|null, "duration_hours": number|null}]}
  * CCS map: CSV with header, columns icd9,ccs_label[,description]
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

ADMISSION_TYPES = ("newborn", "elective", "emergency", "urgent")


class CcsMapError(ValueError):
    pass


class VocabularyError(ValueError):
    pass


@dataclass
class Admission:
    timestamp: int
    codes: set  # CCS labels (or raw ICD-9 strings before mapping)
    adm_type: str | None = None
    duration: float | None = None  # hours


@dataclass
class PatientRecord:
    patient_id: str
    admissions: list  # of Admission, sorted ascending by timestamp


@dataclass
class CcsMap:
    mapping: dict  # icd9 code -> ccs label
    labels: dict = field(default_factory=dict)  # ccs label -> description

    def __contains__(self, icd: str) -> bool:
        return icd in self.mapping


@dataclass
class CodeVocabulary:
    labels: list  # distinct CCS labels, sorted lexicographically

    def __post_init__(self):
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class FilterReport:
    admissions_empty_codes: int = 0
    admissions_negative_duration: int = 0
    patients_too_few_admissions: int = 0
    unknown_icd_codes: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ExtraFeatures:
    """Which extra input slices to concatenate after the code slots."""
    adm_type: bool = False   # 4-wide one-hot
    duration: bool = False   # one slice, normalized by batch max
    interval: bool = False   # one slice, normalized by batch max

    @property
    def width(self) -> int:
        return (4 if self.adm_type else 0) + int(self.duration) + int(self.interval)

    def to_dict(self) -> dict:
        return {"adm_type": self.adm_type, "duration": self.duration,
                "interval": self.interval}

    @classmethod
    def from_dict(cls, d: dict) -> "ExtraFeatures":
        return cls(**d)


@dataclass
class BatchTensor:
    """Padded batch: x and targets are (steps, patients, features) with the
    target at step i being the multi-hot of the following admission."""
    x: np.ndarray        # (T, P, |D| + extras)
    mask: np.ndarray     # (T, P) of {0, 1}
    targets: np.ndarray  # (T, P, |D|)
    patient_ids: list
    duration_max: float = 0.0
    interval_max: float = 0.0

    @property
    def n_steps(self) -> int:
        return self.x.shape[0]

    @property
    def n_patients(self) -> int:
        return self.x.shape[1]


# ---------------------------------------------------------------------------
# loading / saving

def load_patients(path) -> list:
    """Read JSON-lines patient records; admissions are sorted by timestamp."""
    patients = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                patients.append(_patient_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return patients


def _all_strings(items) -> bool:
    # str.join checks every item in C, three times faster than isinstance
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _patient_record(obj) -> PatientRecord:
    """The record of one parsed JSON line; a field that is missing or of the
    wrong type, or a non-finite duration, is a ValueError naming it. The
    values come from json.loads, so their types are exact (bool is not
    int)."""
    if type(obj) is not dict:
        raise ValueError("expected a JSON object")
    pid = obj.get("patient_id")
    if type(pid) not in (str, int):
        raise ValueError("patient_id: expected a string or an integer")
    raw = obj.get("admissions")
    if type(raw) is not list:
        raise ValueError("admissions: expected a list")
    adms = []
    for i, a in enumerate(raw):
        if type(a) is not dict:
            raise ValueError(f"admissions[{i}]: expected an object")
        ts, codes = a.get("timestamp"), a.get("icd9")
        adm_type, duration = a.get("type"), a.get("duration_hours")
        if type(ts) is not int:
            field, expected = "timestamp", "an integer"
        elif type(codes) is not list or not _all_strings(codes):
            field, expected = "icd9", "a list of strings"
        elif adm_type is not None and type(adm_type) is not str:
            field, expected = "type", "a string or null"
        elif duration is not None and (type(duration) not in (int, float)
                                       or not math.isfinite(duration)):
            field, expected = "duration_hours", "a finite number or null"
        else:
            adms.append(Admission(ts, set(codes), adm_type, duration))
            continue
        raise ValueError(f"admissions[{i}].{field}: expected {expected}")
    adms.sort(key=lambda a: a.timestamp)
    return PatientRecord(str(pid), adms)


def save_patients(patients, path) -> None:
    with open(path, "w") as fh:
        for p in patients:
            obj = {
                "patient_id": p.patient_id,
                "admissions": [
                    {
                        "timestamp": a.timestamp,
                        "icd9": sorted(a.codes),
                        "type": a.adm_type,
                        "duration_hours": a.duration,
                    }
                    for a in p.admissions
                ],
            }
            fh.write(json.dumps(obj) + "\n")


def load_ccs_map(path) -> CcsMap:
    """Parse the two/three-column CSV mapping; conflicting rows are fatal."""
    mapping = {}
    labels = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return CcsMap(mapping={}, labels={})
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise CcsMapError(f"{path}:{lineno}: expected at least 2 columns")
            icd = row[0].strip()
            ccs = row[1].strip()
            if not icd or not ccs:
                raise CcsMapError(f"{path}:{lineno}: empty code field")
            if icd in mapping and mapping[icd] != ccs:
                raise CcsMapError(
                    f"{path}:{lineno}: conflicting mapping for {icd}: "
                    f"{mapping[icd]} vs {ccs}"
                )
            mapping[icd] = ccs
            if len(row) >= 3 and row[2].strip():
                labels[ccs] = row[2].strip()
    return CcsMap(mapping=mapping, labels=labels)


# ---------------------------------------------------------------------------
# mapping and filtering

def map_icd_to_ccs(record: PatientRecord, ccs: CcsMap,
                   report: FilterReport | None = None) -> PatientRecord:
    """Replace each admission's ICD set by the set of distinct CCS labels.

    Unknown codes are dropped and counted; the many-to-one mapping collapses
    duplicates naturally via the set.
    """
    mapped = []
    for adm in record.admissions:
        codes = set()
        for icd in adm.codes:
            if icd in ccs.mapping:
                codes.add(ccs.mapping[icd])
            elif report is not None:
                report.unknown_icd_codes += 1
        mapped.append(Admission(adm.timestamp, codes, adm.adm_type, adm.duration))
    return PatientRecord(record.patient_id, mapped)


def filter_cohort(patients) -> tuple:
    """Drop admissions with empty code sets or negative durations, then drop
    patients left with fewer than two admissions."""
    report = FilterReport()
    kept_patients = []
    for p in patients:
        kept = []
        for adm in p.admissions:
            if not adm.codes:
                report.admissions_empty_codes += 1
                continue
            if adm.duration is not None and adm.duration < 0:
                report.admissions_negative_duration += 1
                continue
            kept.append(adm)
        if len(kept) >= 2:
            kept_patients.append(PatientRecord(p.patient_id, kept))
        else:
            report.patients_too_few_admissions += 1
    return kept_patients, report


def build_vocabulary(patients) -> CodeVocabulary:
    labels = set()
    for p in patients:
        for adm in p.admissions:
            labels.update(adm.codes)
    if not labels:
        raise VocabularyError("empty cohort: no codes to build a vocabulary from")
    return CodeVocabulary(sorted(labels))


# ---------------------------------------------------------------------------
# batch construction

def multi_hot(codes, vocab: CodeVocabulary) -> np.ndarray:
    v = np.zeros(len(vocab))
    for c in codes:
        idx = vocab.index.get(c)
        if idx is None:
            raise VocabularyError(f"code {c!r} not in vocabulary")
        v[idx] = 1.0
    return v


def build_batch(patients, vocab: CodeVocabulary,
                extras: ExtraFeatures | None = None,
                duration_max: float | None = None,
                interval_max: float | None = None) -> BatchTensor:
    """Build the padded (steps, patients, features) input tensor with mask and
    one-step-ahead targets.

    A patient with m admissions contributes m-1 steps: step i holds admission i
    as input and admission i+1 as target. duration_max/interval_max override the
    per-batch normalization constants (used at inference with stored constants).
    """
    extras = extras or ExtraFeatures()
    if not patients:
        raise ValueError("empty patient list")
    for p in patients:
        if len(p.admissions) < 2:
            raise ValueError(f"patient {p.patient_id} has fewer than 2 admissions")

    n_steps = max(len(p.admissions) - 1 for p in patients)
    n_pat = len(patients)
    d = len(vocab)
    feat = d + extras.width

    dur_max = duration_max
    ivl_max = interval_max
    if extras.duration and dur_max is None:
        dur_max = max((a.duration or 0.0) for p in patients for a in p.admissions)
    if extras.interval and ivl_max is None:
        ivl_max = 0.0
        for p in patients:
            for i in range(1, len(p.admissions)):
                ivl = p.admissions[i].timestamp - p.admissions[i - 1].timestamp
                ivl_max = max(ivl_max, float(ivl))

    x = np.zeros((n_steps, n_pat, feat))
    targets = np.zeros((n_steps, n_pat, d))
    mask = np.zeros((n_steps, n_pat))

    for h, p in enumerate(patients):
        for i in range(len(p.admissions) - 1):
            adm = p.admissions[i]
            x[i, h, :d] = multi_hot(adm.codes, vocab)
            col = d
            if extras.adm_type:
                if adm.adm_type in ADMISSION_TYPES:
                    x[i, h, col + ADMISSION_TYPES.index(adm.adm_type)] = 1.0
                col += 4
            if extras.duration:
                if adm.duration is not None and dur_max and dur_max > 0:
                    x[i, h, col] = adm.duration / dur_max
                col += 1
            if extras.interval:
                ivl = 0.0 if i == 0 else float(
                    adm.timestamp - p.admissions[i - 1].timestamp)
                if ivl_max and ivl_max > 0:
                    x[i, h, col] = ivl / ivl_max
                col += 1
            targets[i, h, :] = multi_hot(p.admissions[i + 1].codes, vocab)
            mask[i, h] = 1.0

    return BatchTensor(x=x, mask=mask, targets=targets,
                       patient_ids=[p.patient_id for p in patients],
                       duration_max=float(dur_max or 0.0),
                       interval_max=float(ivl_max or 0.0))


def split_batches(patients, vocab, extras=None, batch_size=None) -> list:
    """Group patients into batches of at most batch_size, padding within each
    group. batch_size None means one batch for the whole list."""
    if batch_size is None or batch_size >= len(patients):
        return [build_batch(patients, vocab, extras)]
    return [
        build_batch(patients[i:i + batch_size], vocab, extras)
        for i in range(0, len(patients), batch_size)
    ]
