import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxtraj import ehr_data
from dxtraj.ehr_data import (
    Admission,
    BatchTensor,
    CcsMapError,
    CodeVocabulary,
    ExtraFeatures,
    FilterReport,
    PatientRecord,
    VocabularyError,
    build_batch,
    build_vocabulary,
    feature_constants,
    filter_cohort,
    load_ccs_map,
    map_icd_to_ccs,
    split_batches,
)


def make_patient(pid, code_sets, start=1000, gap=86400, durations=None):
    adms = []
    for i, codes in enumerate(code_sets):
        dur = durations[i] if durations else 24.0
        adms.append(Admission(start + i * gap, set(codes), duration=dur))
    return PatientRecord(pid, adms)


# ---------------------------------------------------------------------------
# CCS map

def test_load_ccs_map(tmp_path):
    f = tmp_path / "map.csv"
    f.write_text("icd9,ccs_label,description\n"
                 "01000,1,Tuberculosis\n01001,1,Tuberculosis\n0600,7,Polio\n")
    m = load_ccs_map(f)
    assert m.mapping["01000"] == "1"
    assert m.labels["1"] == "Tuberculosis"
    assert "01000" in m.mapping


def test_load_ccs_map_empty(tmp_path):
    # a map with no rows would count every code unknown
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(CcsMapError) as err:
        load_ccs_map(f)
    assert str(err.value) == f"{f}: no mapping rows"


@pytest.mark.parametrize("text", ["icd9,ccs_label,description\n",
                                  "\n\n  \n"],
                         ids=["header-only", "blank-lines"])
def test_load_ccs_map_without_rows(tmp_path, text):
    f = tmp_path / "map.csv"
    f.write_text(text)
    with pytest.raises(CcsMapError) as err:
        load_ccs_map(f)
    assert str(err.value) == f"{f}: no mapping rows"


def test_load_ccs_map_conflict(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("icd9,ccs_label\n01000,1\n01000,2\n")
    with pytest.raises(CcsMapError, match="conflicting"):
        load_ccs_map(f)


def test_load_ccs_map_duplicate_consistent_ok(tmp_path):
    f = tmp_path / "dup.csv"
    f.write_text("icd9,ccs_label\n01000,1\n01000,1\n")
    assert load_ccs_map(f).mapping == {"01000": "1"}


def test_load_ccs_map_field_over_the_csv_limit(tmp_path):
    # csv raises csv.Error, which is no ValueError; the map names the file
    f = tmp_path / "huge.csv"
    f.write_text("icd9,ccs_label\n01000," + "1" * 200_000 + "\n")
    with pytest.raises(CcsMapError, match="huge.csv: field larger"):
        load_ccs_map(f)


# ---------------------------------------------------------------------------
# mapping

def tb_map():
    return ehr_data.CcsMap(mapping={"01000": "1", "01001": "1", "0600": "7"},
                           labels={"1": "Tuberculosis", "7": "Polio"})


def test_map_collapses_many_to_one():
    p = make_patient("a", [{"01000", "01001"}, {"01000"}])
    mapped = map_icd_to_ccs(p, tb_map())
    assert mapped.admissions[0].codes == {"1"}


def test_map_drops_unknown_with_accounting():
    report = FilterReport()
    p = make_patient("a", [{"01000", "XXXX"}, {"YYYY"}])
    mapped = map_icd_to_ccs(p, tb_map(), report)
    assert mapped.admissions[0].codes == {"1"}
    assert mapped.admissions[1].codes == set()
    assert report.unknown_icd_codes == 2


def test_map_mixed_targets():
    p = make_patient("a", [{"01000", "0600"}, {"0600"}])
    mapped = map_icd_to_ccs(p, tb_map())
    assert mapped.admissions[0].codes == {"1", "7"}


# ---------------------------------------------------------------------------
# filtering

def test_filter_single_admission_patient_removed():
    kept, report = filter_cohort([make_patient("a", [{"1"}])])
    assert kept == []
    assert report.patients_too_few_admissions == 1


def test_filter_negative_duration_admission():
    p = make_patient("a", [{"1"}, {"2"}, {"3"}], durations=[5.0, -1.0, 5.0])
    kept, report = filter_cohort([p])
    assert len(kept) == 1 and len(kept[0].admissions) == 2
    assert report.admissions_negative_duration == 1


def test_filter_empty_codes_cascades_to_patient_removal():
    p = make_patient("a", [{"1"}, set()])
    kept, report = filter_cohort([p])
    assert kept == []
    assert report.admissions_empty_codes == 1
    assert report.patients_too_few_admissions == 1


def test_filter_idempotent():
    patients = [
        make_patient("a", [{"1"}, {"2"}, set()]),
        make_patient("b", [{"3"}]),
        make_patient("c", [{"1"}, {"1", "2"}]),
    ]
    once, _ = filter_cohort(patients)
    twice, report2 = filter_cohort(once)
    assert [p.patient_id for p in twice] == [p.patient_id for p in once]
    assert report2.admissions_empty_codes == 0
    assert report2.patients_too_few_admissions == 0


# ---------------------------------------------------------------------------
# vocabulary

def test_build_vocabulary():
    pats = [make_patient("a", [{"1"}, {"7"}]), make_patient("b", [{"7"}, {"9"}])]
    vocab = build_vocabulary(pats)
    assert vocab.labels == ["1", "7", "9"]
    assert len(vocab) == 3


def test_build_vocabulary_empty_cohort():
    with pytest.raises(VocabularyError):
        build_vocabulary([])


@given(st.permutations(["a", "b", "c"]))
def test_vocabulary_order_independent(order):
    by_id = {
        "a": make_patient("a", [{"5"}, {"2"}]),
        "b": make_patient("b", [{"9"}, {"5"}]),
        "c": make_patient("c", [{"1"}, {"2"}]),
    }
    vocab = build_vocabulary([by_id[k] for k in order])
    assert vocab.labels == ["1", "2", "5", "9"]


# ---------------------------------------------------------------------------
# batch construction

def test_multi_hot_slots():
    vocab = CodeVocabulary(["0", "1", "2", "3", "4", "5"])
    p = make_patient("a", [{"2", "5"}, {"0"}])
    batch = build_batch([p], vocab)
    npt.assert_array_equal(batch.x[0, 0], [0, 0, 1, 0, 0, 1])


def test_batch_padding_and_mask():
    vocab = CodeVocabulary(["0", "1"])
    p2 = make_patient("short", [{"0"}, {"1"}])
    p4 = make_patient("long", [{"0"}, {"1"}, {"0"}, {"1"}])
    batch = build_batch([p2, p4], vocab)
    assert batch.mask.shape[0] == 3
    npt.assert_array_equal(batch.mask[:, 0], [1, 0, 0])
    npt.assert_array_equal(batch.mask[:, 1], [1, 1, 1])
    # masked-out positions are all-zero
    assert not batch.x[1:, 0].any()
    assert not batch.targets[1:, 0].any()


def test_targets_are_next_admission():
    vocab = CodeVocabulary(["0", "1", "2"])
    p = make_patient("a", [{"0"}, {"1"}, {"0", "2"}])
    batch = build_batch([p], vocab)
    npt.assert_array_equal(batch.targets[0, 0], [0, 1, 0])
    npt.assert_array_equal(batch.targets[1, 0], [1, 0, 1])


def test_roundtrip_multi_hot_recovers_codes():
    vocab = CodeVocabulary(["0", "1", "2", "3"])
    p = make_patient("a", [{"1", "3"}, {"0", "2"}, {"2"}])
    batch = build_batch([p], vocab)
    for i in range(2):
        decoded = {vocab.labels[j] for j in np.nonzero(batch.x[i, 0, :4])[0]}
        assert decoded == p.admissions[i].codes


def test_duration_normalization():
    vocab = CodeVocabulary(["0"])
    a = make_patient("a", [{"0"}, {"0"}], durations=[10.0, 40.0])
    b = make_patient("b", [{"0"}, {"0"}], durations=[40.0, 10.0])
    extras = ExtraFeatures(duration=True)
    constants = feature_constants([a, b], extras)
    assert constants == (40.0, 0.0)
    batch = build_batch([a, b], vocab, extras, *constants)
    assert batch.x.shape[2] == 2
    assert batch.x[0, 0, 1] == pytest.approx(0.25)
    assert batch.x[0, 1, 1] == pytest.approx(1.0)


def test_interval_and_type_features():
    vocab = CodeVocabulary(["0"])
    p = PatientRecord("a", [
        Admission(0, {"0"}, adm_type="emergency", duration=1.0),
        Admission(100, {"0"}, adm_type="urgent", duration=1.0),
        Admission(300, {"0"}, adm_type="elective", duration=1.0),
    ])
    extras = ExtraFeatures(adm_type=True, interval=True)
    assert feature_constants([p], extras) == (0.0, 200.0)
    batch = build_batch([p], vocab, extras, *feature_constants([p], extras))
    assert batch.x.shape[2] == 1 + 4 + 1
    # type one-hot order: newborn, elective, emergency, urgent
    npt.assert_array_equal(batch.x[0, 0, 1:5], [0, 0, 1, 0])
    npt.assert_array_equal(batch.x[1, 0, 1:5], [0, 0, 0, 1])
    assert batch.x[0, 0, 5] == 0.0  # first admission has no predecessor
    assert batch.x[1, 0, 5] == pytest.approx(100 / 200)


def test_feature_width_combinations():
    widths = {(False, False, False): 0, (True, False, False): 4,
              (False, True, False): 1, (False, True, True): 2,
              (True, True, False): 5, (True, True, True): 6}
    for (t, d, i), w in widths.items():
        assert ExtraFeatures(adm_type=t, duration=d, interval=i).width == w


def test_vocabulary_miss_raises():
    vocab = CodeVocabulary(["0"])
    p = make_patient("a", [{"0"}, {"zzz"}])
    with pytest.raises(VocabularyError):
        build_batch([p], vocab)


def test_split_batches():
    vocab = CodeVocabulary(["0"])
    pats = [make_patient(f"p{i}", [{"0"}, {"0"}]) for i in range(5)]
    batches = split_batches(pats, vocab, batch_size=2)
    assert [b.mask.shape[1] for b in batches] == [2, 2, 1]
    assert len(split_batches(pats, vocab)) == 1


def old_padded_batch(patients, vocab, extras, duration_max=None,
                     interval_max=None):
    """The padded (T, P, ·) builder as it was before batches were packed,
    one multi_hot per admission and role: the reference for the encoder.
    Returns (x, mask, targets, duration_max, interval_max)."""
    def multi_hot(codes):
        v = np.zeros(len(vocab))
        for c in codes:
            v[vocab.index[c]] = 1.0
        return v

    n_steps = max(len(p.admissions) - 1 for p in patients)
    d = len(vocab)
    dur_max, ivl_max = duration_max, interval_max
    if extras.duration and dur_max is None:
        dur_max = max((a.duration or 0.0) for p in patients for a in p.admissions)
    if extras.interval and ivl_max is None:
        ivl_max = 0.0
        for p in patients:
            for i in range(1, len(p.admissions)):
                ivl = p.admissions[i].timestamp - p.admissions[i - 1].timestamp
                ivl_max = max(ivl_max, float(ivl))
    x = np.zeros((n_steps, len(patients), d + extras.width))
    targets = np.zeros((n_steps, len(patients), d))
    mask = np.zeros((n_steps, len(patients)))
    for h, p in enumerate(patients):
        for i in range(len(p.admissions) - 1):
            adm = p.admissions[i]
            x[i, h, :d] = multi_hot(adm.codes)
            col = d
            if extras.adm_type:
                if adm.adm_type in ehr_data.ADMISSION_TYPES:
                    x[i, h, col + ehr_data.ADMISSION_TYPES.index(adm.adm_type)] = 1.0
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
            targets[i, h, :] = multi_hot(p.admissions[i + 1].codes)
            mask[i, h] = 1.0
    return x, mask, targets, float(dur_max or 0.0), float(ivl_max or 0.0)


LABELS = ["0", "1", "2", "3", "4", "5"]

admissions = st.lists(
    st.tuples(
        st.integers(0, 500),                               # gap to the last
        st.sets(st.sampled_from(LABELS), min_size=1),      # codes
        st.sampled_from(ehr_data.ADMISSION_TYPES + (None, "other")),
        st.one_of(st.none(), st.integers(0, 90),
                  st.floats(0, 1e3, allow_nan=False))),    # duration
    min_size=2, max_size=6)


def as_patient(pid, adms):
    out, ts = [], 1000
    for gap, codes, adm_type, duration in adms:
        ts += gap
        out.append(Admission(ts, set(codes), adm_type, duration))
    return PatientRecord(pid, out)


cohorts = st.lists(admissions, min_size=1, max_size=5).map(
    lambda c: [as_patient(f"p{i}", a) for i, a in enumerate(c)])
extra_sets = st.builds(ExtraFeatures, st.booleans(), st.booleans(),
                       st.booleans())
constants = st.one_of(st.none(), st.just(0.0), st.floats(0.5, 1e3))


@settings(max_examples=150, deadline=None)
@given(cohorts, extra_sets, constants, constants)
def test_packed_batch_equals_old_padded_builder(patients, extras, dmax, imax):
    """A constant of None is derived by feature_constants here and by the
    old builder from the same patients."""
    vocab = CodeVocabulary(LABELS)
    derived = feature_constants(patients, extras)
    batch = build_batch(patients, vocab, extras,
                        derived[0] if dmax is None else dmax,
                        derived[1] if imax is None else imax)
    x, mask, targets, dur_max, ivl_max = old_padded_batch(
        patients, vocab, extras, dmax, imax)
    npt.assert_array_equal(batch.mask, mask)
    npt.assert_array_equal(batch.input_rows(), x[mask != 0])
    npt.assert_array_equal(batch.target_rows, targets[mask != 0])
    npt.assert_array_equal(batch.x, x)
    npt.assert_array_equal(batch.targets, targets)
    if dmax is None and extras.duration:
        assert derived[0] == dur_max
    if imax is None and extras.interval:
        assert derived[1] == ivl_max


def float_target_rows(patients, vocab, every_admission):
    """The float64 multi-hot of each valid cell's next admission, a zero
    row where there is none, packed time-major like BatchTensor's rows."""
    lead = 0 if every_admission else 1
    n_steps = max(len(p.admissions) - lead for p in patients)
    rows = []
    for t in range(n_steps):
        for p in patients:
            if t < len(p.admissions) - lead:
                row = np.zeros(len(vocab))
                if t + 1 < len(p.admissions):
                    row[[vocab.index[c] for c in p.admissions[t + 1].codes]] = 1.0
                rows.append(row)
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(cohorts, extra_sets, st.booleans())
def test_target_rows_are_a_one_byte_multi_hot(patients, extras,
                                              every_admission):
    vocab = CodeVocabulary(LABELS)
    batch = build_batch(patients, vocab, extras,
                        *feature_constants(patients, extras),
                        every_admission=every_admission)
    assert batch.target_rows.dtype == np.uint8
    assert batch.code_rows.dtype == np.uint8
    assert batch.extra_rows.dtype == np.float64
    expected = float_target_rows(patients, vocab, every_admission)
    assert batch.target_rows.shape == expected.shape
    assert (batch.target_rows == expected).all()


def test_split_batches_hold_only_valid_rows():
    vocab = CodeVocabulary(["0", "1", "2"])
    pats = [make_patient(f"p{i}", [{"0"}, {"1", "2"}] * (1 + i % 4))
            for i in range(11)]
    batches = split_batches(pats, vocab, ExtraFeatures(True, True, True),
                            batch_size=4)
    for b, chunk in zip(batches, [pats[0:4], pats[4:8], pats[8:]]):
        n_valid = sum(len(p.admissions) - 1 for p in chunk)
        assert b.mask.sum() == n_valid
        assert b.code_rows.shape == (n_valid, 3)
        assert b.extra_rows.shape == (n_valid, 6)
        assert b.target_rows.shape == (n_valid, 3)
        # nothing the batch holds is laid out on the padded grid
        arrays = [v for v in vars(b).values() if isinstance(v, np.ndarray)]
        assert sum(a.size for a in arrays) == \
            b.mask.size + n_valid * (3 + 6 + 3)
        # one-byte code slots and targets, float64 extras and mask
        assert b.code_rows.dtype == b.target_rows.dtype == np.uint8
        assert b.extra_rows.dtype == np.float64
        assert sum(a.nbytes for a in arrays) == \
            8 * (b.mask.size + n_valid * 6) + n_valid * (3 + 3)


def test_batch_rows_must_match_the_mask():
    with pytest.raises(ValueError, match="valid cells"):
        BatchTensor(code_rows=np.zeros((2, 3)), extra_rows=np.zeros((2, 0)),
                    target_rows=np.zeros((2, 3)), mask=np.ones((1, 3)),
                    patient_ids=["a", "b", "c"])
    padded = np.arange(12.0).reshape(2, 2, 3)
    mask = np.array([[1.0, 1.0], [0.0, 1.0]])
    batch = BatchTensor.from_padded(padded, mask, padded, ["a", "b"])
    npt.assert_array_equal(batch.input_rows(), padded[[0, 0, 1], [0, 1, 1]])
    npt.assert_array_equal(batch.x, padded * mask[:, :, None])


# ---------------------------------------------------------------------------
# file round-trips

def test_patient_jsonl_roundtrip(tmp_path):
    p = PatientRecord("p1", [
        Admission(200, {"b", "a"}, adm_type="urgent", duration=3.5),
        Admission(100, {"c"}, adm_type=None, duration=None),
    ])
    path = tmp_path / "pat.jsonl"
    ehr_data.save_patients([p], path)
    loaded = ehr_data.load_patients(path)
    assert loaded[0].patient_id == "p1"
    # loader sorts admissions by timestamp
    assert [a.timestamp for a in loaded[0].admissions] == [100, 200]
    assert loaded[0].admissions[1].codes == {"a", "b"}
    assert loaded[0].admissions[1].duration == 3.5


def test_load_patients_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ValueError, match="invalid JSON"):
        ehr_data.load_patients(path)


def test_filter_report_json():
    r = FilterReport(admissions_empty_codes=2)
    assert json.loads(json.dumps(asdict(r)))["admissions_empty_codes"] == 2


GOOD_RECORD = {"patient_id": "ok", "admissions": [
    {"timestamp": 1, "icd9": ["1"], "type": None, "duration_hours": 2.5}]}


def _admission(**fields):
    return {"patient_id": "p", "admissions": [
        GOOD_RECORD["admissions"][0], {"timestamp": 5, "icd9": ["1"], **fields}]}


@pytest.mark.parametrize("record, field", [
    ([1, 2], "expected a JSON object"),
    ({"admissions": []}, "patient_id"),
    ({"patient_id": True, "admissions": []}, "patient_id"),
    ({"patient_id": "p"}, "admissions"),
    ({"patient_id": "p", "admissions": {}}, "admissions"),
    ({"patient_id": "p", "admissions": ["x"]}, r"admissions\[0\]: expected"),
    ({"patient_id": "p", "admissions": [{"icd9": ["1"]}]},
     r"admissions\[0\]\.timestamp"),
    (_admission(timestamp="5"), r"admissions\[1\]\.timestamp"),
    (_admission(timestamp=5.5), r"admissions\[1\]\.timestamp"),
    ({"patient_id": "p", "admissions": [{"timestamp": 5}]}, "icd9"),
    (_admission(icd9="0600"), "icd9"),
    (_admission(icd9=["0600", 600]), "icd9"),
    (_admission(type=3), r"\.type"),
    (_admission(duration_hours=float("nan")), "duration_hours"),
    (_admission(duration_hours=float("inf")), "duration_hours"),
    (_admission(duration_hours="12"), "duration_hours"),
])
def test_load_patients_names_line_and_field(tmp_path, record, field):
    # line 1 is good and line 2 blank, so the bad record is on line 3
    path = tmp_path / "pat.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=rf"pat\.jsonl:3: .*{field}"):
        ehr_data.load_patients(path)


def test_load_patients_accepts_integer_ids_and_null_fields(tmp_path):
    path = tmp_path / "pat.jsonl"
    record = {"patient_id": 7, "admissions": [
        {"timestamp": 3, "icd9": [], "type": None, "duration_hours": None},
        {"timestamp": 1, "icd9": ["a"], "duration_hours": 4}]}
    path.write_text(json.dumps(record) + "\n")
    [p] = ehr_data.load_patients(path)
    assert p.patient_id == "7"
    assert [(a.timestamp, a.codes, a.adm_type, a.duration)
            for a in p.admissions] == [(1, {"a"}, None, 4), (3, set(), None, None)]


def test_load_patients_rejects_a_repeated_patient_id(tmp_path):
    # "7" and 7 are one id: the loader makes every id a string
    path = tmp_path / "pat.jsonl"
    path.write_text("\n".join(json.dumps({**GOOD_RECORD, "patient_id": pid})
                              for pid in ("7", "ok", 7)) + "\n")
    with pytest.raises(ValueError, match=r"pat\.jsonl:3: duplicate "
                                         r"patient_id '7' \(first on line 1\)"):
        ehr_data.load_patients(path)


def test_equal_codes_in_a_loaded_file_are_one_object(tmp_path):
    path = tmp_path / "pat.jsonl"
    path.write_text(
        json.dumps({"patient_id": "a", "admissions": [
            {"timestamp": 1, "icd9": ["0600", "01000"]},
            {"timestamp": 2, "icd9": ["0600"]}]}) + "\n"
        + json.dumps({"patient_id": "b", "admissions": [
            {"timestamp": 1, "icd9": ["01000", "0600"]}]}) + "\n")
    codes = [c for p in ehr_data.load_patients(path) for a in p.admissions
             for c in a.codes]
    assert len(codes) == 5
    for code in codes:
        assert all(c is code for c in codes if c == code)


def test_mapped_labels_are_the_ccs_maps_objects(tmp_path):
    f = tmp_path / "map.csv"
    f.write_text("icd9,ccs_label\n01000,tb-1\n01001,tb-1\n0600,polio-7\n")
    ccs = load_ccs_map(f)
    assert ccs.mapping["01000"] is ccs.mapping["01001"]
    labels = {id(v) for v in ccs.mapping.values()}
    assert len(labels) == 2
    p = make_patient("a", [{"01000", "0600"}, {"01001", "XXXX"}])
    mapped = map_icd_to_ccs(p, ccs)
    assert [a.codes for a in mapped.admissions] == [{"tb-1", "polio-7"},
                                                    {"tb-1"}]
    assert all(id(c) in labels for a in mapped.admissions for c in a.codes)


def test_records_keep_no_instance_dict():
    adm = Admission(1, {"a"})
    for obj in (adm, PatientRecord("p", [adm])):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.note = "x"


@settings(max_examples=60, deadline=None)
@given(cohorts, extra_sets)
def test_from_padded_round_trips(patients, extras):
    vocab = CodeVocabulary(LABELS)
    batch = build_batch(patients, vocab, extras,
                        *feature_constants(patients, extras))
    again = BatchTensor.from_padded(batch.x, batch.mask, batch.targets,
                                    batch.patient_ids)
    assert again.input_rows().tobytes() == batch.input_rows().tobytes()
    npt.assert_array_equal(again.code_rows, batch.code_rows)
    assert again.extra_rows.tobytes() == batch.extra_rows.tobytes()
    assert again.target_rows.dtype == np.uint8
    assert again.target_rows.tobytes() == batch.target_rows.tobytes()
    npt.assert_array_equal(again.x, batch.x)
    # the padded code slots come back as the uint8 rows build_batch wrote
    codes = BatchTensor.from_padded(batch.pad(batch.code_rows), batch.mask,
                                    batch.targets, batch.patient_ids)
    assert codes.code_rows.dtype == np.uint8
    assert codes.code_rows.tobytes() == batch.code_rows.tobytes()
    assert codes.extra_rows.shape == (len(batch.code_rows), 0)


def test_save_patients_that_fails_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "cohort.jsonl"
    good = PatientRecord("p1", [Admission(100, {"a"}), Admission(200, {"b"})])
    other = PatientRecord("p3", [Admission(100, {"c"}), Admission(300, {"a"})])
    ehr_data.save_patients([good, other], path)
    before = path.read_bytes()
    # mixed code types cannot be sorted: the second record raises
    bad = PatientRecord("p2", [Admission(100, {"a", 1})])
    with pytest.raises(TypeError):
        ehr_data.save_patients([good, bad], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.jsonl"]
