"""Patient/admission data model, ICD-9 -> CCS mapping, cohort filtering, and
the admission encoder, which writes batches as packed one-byte multi-hot rows
with a mask.

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
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .files import atomic_write_text

ADMISSION_TYPES = ("newborn", "elective", "emergency", "urgent")


class CcsMapError(ValueError):
    pass


class VocabularyError(ValueError):
    pass


@dataclass(slots=True)
class Admission:
    timestamp: int
    codes: set  # CCS labels (or raw ICD-9 strings before mapping)
    adm_type: str | None = None
    duration: float | None = None  # hours


@dataclass(slots=True)
class PatientRecord:
    patient_id: str
    admissions: list  # of Admission, sorted ascending by timestamp


@dataclass
class CcsMap:
    mapping: dict  # icd9 code -> ccs label
    labels: dict = field(default_factory=dict)  # ccs label -> description


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


@dataclass
class ExtraFeatures:
    """Which extra input slices to concatenate after the code slots."""
    adm_type: bool = False   # 4-wide one-hot
    duration: bool = False   # one slice, over the training split's max
    interval: bool = False   # likewise; the checkpoint stores both maxima

    @property
    def width(self) -> int:
        return (4 if self.adm_type else 0) + int(self.duration) + int(self.interval)

    @classmethod
    def from_dict(cls, d: dict) -> "ExtraFeatures":
        flags = [f.name for f in fields(cls)]
        if any(k not in flags or type(v) is not bool for k, v in d.items()):
            raise ValueError(f"extra features must be booleans of "
                             f"{', '.join(flags)}, got {d!r}")
        return cls(**d)


@dataclass
class BatchTensor:
    """A batch of patients on a grid of (step, patient) cells, of which mask
    marks the valid ones. Only the valid cells are stored, as rows packed
    time-major, in the order of x[mask != 0]: the rows of step t are the
    patients flatnonzero(mask[t]), in order. The target of the cell at step
    i is the multi-hot of the patient's admission i + 1.

    An input row is split in two arrays: the multi-hot code slots and the
    float64 extras that follow them (width 0 without extras). build_batch
    writes the code slots and the targets as uint8, one byte per slot:
    their values are exactly 0 and 1, and uint8 times float64 promotes
    exactly, so the loss, its gradient and recall read the targets as they
    are. input_rows() is the one place that lays out the float64 rows
    [codes | extras]; an embedding reads code_rows and extra_rows apart."""
    code_rows: np.ndarray    # (n_valid, |D|), uint8 from build_batch
    extra_rows: np.ndarray   # (n_valid, extras), float64
    target_rows: np.ndarray  # (n_valid, |D|), uint8 from build_batch
    mask: np.ndarray         # (T, P) of {0, 1}
    patient_ids: list

    def __post_init__(self):
        n_valid = np.count_nonzero(self.mask)
        if not (len(self.code_rows) == len(self.extra_rows)
                == len(self.target_rows) == n_valid):
            raise ValueError(
                f"{len(self.code_rows)} code, {len(self.extra_rows)} extra "
                f"and {len(self.target_rows)} target rows for {n_valid} "
                f"valid cells")

    @classmethod
    def from_padded(cls, x, mask, targets, patient_ids):
        """The batch of padded (T, P, ·) inputs and targets; what they hold
        at the cells that mask leaves out is dropped. The first |D| slots
        of x, |D| being the width of targets, are the code slots, kept in
        x's dtype; the rest are the extras."""
        valid = mask != 0
        d = targets.shape[-1]
        return cls(x[..., :d][valid], x[..., d:][valid], targets[valid],
                   mask, patient_ids)

    def input_rows(self, code_noise=None) -> np.ndarray:
        """The layer-0 input rows (n_valid, |D| + extras) as float64: the
        code slots, plus code_noise (n_valid, |D|) when given, then the
        extras. Built on each call."""
        n, d = self.code_rows.shape
        rows = np.empty((n, d + self.extra_rows.shape[1]))
        rows[:, :d] = self.code_rows
        if code_noise is not None:
            rows[:, :d] += code_noise
        rows[:, d:] = self.extra_rows
        return rows

    def pad(self, rows: np.ndarray) -> np.ndarray:
        """Packed rows (n_valid, ...) laid out on the (T, P) grid, zeros at
        the cells that mask leaves out."""
        out = np.zeros(self.mask.shape + rows.shape[1:], dtype=rows.dtype)
        out[self.mask != 0] = rows
        return out

    @property
    def x(self) -> np.ndarray:
        """The float64 inputs padded to (T, P, |D| + extras), built on each
        call."""
        return self.pad(self.input_rows())

    @property
    def targets(self) -> np.ndarray:
        """The targets padded to (T, P, |D|), built on each call."""
        return self.pad(self.target_rows)


# ---------------------------------------------------------------------------
# loading / saving

def load_patients(path) -> list:
    """Read JSON-lines patient records; admissions are sorted by timestamp.
    A patient_id may appear once (7 and "7" are one id)."""
    patients, first_line = [], {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = _patient_record(json.loads(line))
                first = first_line.setdefault(record.patient_id, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate patient_id {record.patient_id!r}"
                                     f" (first on line {first})")
                patients.append(record)
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
            # one str per distinct code: each occurrence's is freed with its line
            adms.append(Admission(ts, set(map(sys.intern, codes)), adm_type,
                                  duration))
            continue
        raise ValueError(f"admissions[{i}].{field}: expected {expected}")
    adms.sort(key=lambda a: a.timestamp)
    return PatientRecord(str(pid), adms)


def save_patients(patients, path) -> None:
    """Write JSON-lines patient records. The file is written atomically:
    a record that fails to encode leaves what was at path as it was."""
    lines = []
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
        lines.append(json.dumps(obj) + "\n")
    atomic_write_text(path, "".join(lines))


def load_ccs_map(path) -> CcsMap:
    """Parse the two/three-column CSV mapping after its header line;
    conflicting rows, and a file with no mapping row, are fatal."""
    mapping = {}
    labels = {}
    with open(path, newline="") as fh:
        try:  # csv.Error, a field over csv's size limit say, is no ValueError
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise CcsMapError(f"{path}: {exc}") from None
        for lineno, row in enumerate(rows[1:], start=2):  # after the header
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise CcsMapError(f"{path}:{lineno}: expected at least 2 columns")
            icd = row[0].strip()
            ccs = sys.intern(row[1].strip())
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
    if not mapping:
        raise CcsMapError(f"{path}: no mapping rows")
    return CcsMap(mapping=mapping, labels=labels)


# ---------------------------------------------------------------------------
# mapping and filtering

def map_icd_to_ccs(record: PatientRecord, ccs: CcsMap,
                   report: FilterReport | None = None) -> PatientRecord:
    """Replace each admission's ICD set by the set of distinct CCS labels.

    Unknown codes are dropped and counted; the many-to-one mapping collapses
    duplicates naturally via the set.
    """
    mapping, mapped = ccs.mapping, []
    for adm in record.admissions:
        codes = set(map(mapping.get, adm.codes))
        if None in codes:
            codes.discard(None)
            if report is not None:
                report.unknown_icd_codes += sum(c not in mapping for c in adm.codes)
        mapped.append(Admission(adm.timestamp, codes, adm.adm_type, adm.duration))
    return PatientRecord(record.patient_id, mapped)


def filter_cohort(patients) -> tuple:
    """Drop admissions with empty code sets or negative durations, then drop
    patients left with fewer than two admissions. An admission that is
    both is counted as empty."""
    report = FilterReport()
    kept_patients = []
    for p in patients:
        kept = [a for a in p.admissions if a.codes and not (a.duration or 0) < 0]
        if len(kept) < len(p.admissions):
            empty = sum(not a.codes for a in p.admissions)
            report.admissions_empty_codes += empty
            report.admissions_negative_duration += (
                len(p.admissions) - len(kept) - empty)
        if len(kept) >= 2:
            kept_patients.append(PatientRecord(p.patient_id, kept))
        else:
            report.patients_too_few_admissions += 1
    return kept_patients, report


def build_vocabulary(patients) -> CodeVocabulary:
    labels = set().union(*(a.codes for p in patients for a in p.admissions))
    if not labels:
        raise VocabularyError("empty cohort: no codes to build a vocabulary from")
    return CodeVocabulary(sorted(labels))


# ---------------------------------------------------------------------------
# batch construction

def feature_constants(patients, extras: ExtraFeatures) -> tuple:
    """(duration_max, interval_max) of these patients' admissions, 0.0 for
    an extra that is off; taken from the training split for every batch."""
    durations = [a.duration or 0.0 for p in patients for a in p.admissions]
    intervals = [b.timestamp - a.timestamp for p in patients
                 for a, b in zip(p.admissions, p.admissions[1:])]
    return (float(max(durations, default=0)) if extras.duration else 0.0,
            float(max(intervals, default=0)) if extras.interval else 0.0)


def build_batch(patients, vocab: CodeVocabulary,
                extras: ExtraFeatures | None = None,
                duration_max: float = 0.0, interval_max: float = 0.0,
                every_admission: bool = False) -> BatchTensor:
    """The packed batch of a list of patients: the admission encoder.

    A patient with m admissions has m - 1 steps, or m with every_admission
    (a history to predict from): step i holds admission i as input and
    admission i + 1 as target, a zero row when there is none. So every
    patient needs two admissions, or one with every_admission. Each
    admission's codes are mapped through the vocabulary once, and the
    multi-hot slots of the code rows and of the target rows (both uint8)
    are set by one assignment each.

    The extras follow the code slots: the one-hot admission type, the
    duration over duration_max and the interval since the previous
    admission (0 for the first) over interval_max. The constants are the
    training split's (feature_constants), whatever patients are encoded; a
    constant that is not positive leaves its slot at zero.
    """
    if not patients:
        raise ValueError("empty patient list")
    lead = 0 if every_admission else 1
    for p in patients:
        if len(p.admissions) <= lead:
            raise ValueError(f"patient {p.patient_id} has " + (
                "fewer than 2 admissions" if lead else "no admissions"))
    extras = extras or ExtraFeatures()
    d, n_pat = len(vocab), len(patients)
    n_steps = [len(p.admissions) - lead for p in patients]
    valid = np.arange(max(n_steps))[:, None] < np.array(n_steps)
    n_valid = sum(n_steps)
    # row[t, h] is the packed row of the cell (t, h), or -1 where there is
    # none: -1 writes to a scratch row after the last, dropped at the end.
    # The extra last step stands for step -1, which no patient has.
    row = np.full((len(valid) + 1, n_pat), -1, dtype=np.intp)
    row[:-1][valid] = np.arange(n_valid)
    # admission i of patient h is the input of the cell (i, h) and the
    # target of the cell (i - 1, h): the rows of each admission, both roles
    cell = np.array([i * n_pat + h for h, p in enumerate(patients)
                     for i in range(len(p.admissions))], dtype=np.intp)
    adm_rows = row.ravel()[cell - [[0], [n_pat]]]

    index = vocab.index
    try:
        cols = np.array([index[c] for p in patients for a in p.admissions
                         for c in a.codes], dtype=np.intp)
    except KeyError as exc:
        raise VocabularyError(f"code {exc.args[0]!r} not in vocabulary") from None
    counts = [len(a.codes) for p in patients for a in p.admissions]
    code_in, code_target = np.repeat(adm_rows, counts, axis=1)
    code_rows = np.zeros((n_valid + 1, d), dtype=np.uint8)
    target_rows = np.zeros((n_valid + 1, d), dtype=np.uint8)
    code_rows[code_in, cols] = 1
    target_rows[code_target, cols] = 1

    extra_rows = np.zeros((n_valid + 1, extras.width))
    if extras.width:
        rows = adm_rows[0]
        adms = [a for p in patients for a in p.admissions]
        if extras.adm_type:
            extra_rows[rows, :4] = [
                [a.adm_type == t for t in ADMISSION_TYPES] for a in adms]
        if extras.duration and duration_max > 0:
            extra_rows[rows, 4 * extras.adm_type] = [
                (a.duration or 0.0) / duration_max for a in adms]
        if extras.interval and interval_max > 0:
            # the interval since the admission before, 0 for the first
            extra_rows[rows, -1] = [
                (b.timestamp - a.timestamp) / interval_max for p in patients
                for a, b in zip(p.admissions[:1] + p.admissions, p.admissions)]

    return BatchTensor(code_rows=code_rows[:-1], extra_rows=extra_rows[:-1],
                       target_rows=target_rows[:-1], mask=valid * 1.0,
                       patient_ids=[p.patient_id for p in patients])


def split_batches(patients, vocab, extras=None, batch_size=None,
                  duration_max=0.0, interval_max=0.0) -> list:
    """Batches of at most batch_size patients (None: one batch), each with
    its own grid of cells, all normalised by the same constants."""
    size = batch_size or len(patients) or 1
    return [build_batch(patients[i:i + size], vocab, extras, duration_max,
                        interval_max) for i in range(0, len(patients), size)]
