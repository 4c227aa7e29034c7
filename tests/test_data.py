"""Data pipeline: resampling, ingestion, normalization, splits, synthetic data."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (
    ConfigError,
    Dataset,
    IngestionError,
    RawTrial,
    SyntheticSpec,
    accuracy,
    fit,
    generate_synthetic,
    holdout_split,
    ingest,
    load_csv,
    load_synthetic_sidecar,
    loso_splits,
    make_rng,
    normalize,
    resample_channel,
    save_csv,
    save_synthetic,
    subsample_trials,
)
from helpers import trial_table


def _toy_dataset(n_subjects=3, n_classes=2, per_trial=5):
    rows = []
    for s in range(n_subjects):
        for y in range(n_classes):
            tr = s * n_classes + y
            for t in range(per_trial):
                rows.append((float(s), float(y), s, y, tr, float(t)))
    x = np.array([[r[0], r[1]] for r in rows])
    return Dataset(x, [r[3] for r in rows], [r[2] for r in rows],
                   [r[4] for r in rows], [r[5] for r in rows], n_subjects)


# -- resampling ----------------------------------------------------------------

def test_resample_downsamples_by_window_mean():
    times = np.arange(8) / 8.0
    values = np.arange(8, dtype=float)
    out = resample_channel(times, values, np.array([0.0]))
    assert out == pytest.approx([3.5])


def test_resample_constant_channel():
    times = np.linspace(0, 3, 13)
    out = resample_channel(times, np.full(13, 2.5), np.arange(4.0))
    assert np.allclose(out, 2.5)


def test_resample_holds_last_value_when_upsampling():
    out = resample_channel(np.array([0.0, 2.0]), np.array([1.0, 5.0]), np.arange(3.0))
    assert np.array_equal(out, [1.0, 1.0, 5.0])


def test_resample_before_first_sample_uses_first():
    out = resample_channel(np.array([2.0]), np.array([7.0]), np.arange(3.0))
    assert np.array_equal(out, [7.0, 7.0, 7.0])


def test_resample_empty_channel_raises():
    with pytest.raises(IngestionError):
        resample_channel(np.array([]), np.array([]), np.arange(2.0))


# -- ingestion -----------------------------------------------------------------

def _raw_trial(subject, trial, label, seconds=4, value=1.0):
    times = np.arange(seconds, dtype=float)
    return RawTrial(subject, trial, label,
                    {"hr": (times, np.full(seconds, value)),
                     "eda": (times, np.full(seconds, value * 2))})


def test_ingest_excludes_extra_relaxation_trials():
    trials = []
    for s in range(5):
        for k in range(4):
            trials.append(_raw_trial(s, k, label=0))
        for k, label in enumerate((1, 2, 3), start=4):
            trials.append(_raw_trial(s, k, label))
    ds = ingest(trials, ["hr", "eda"])
    table = trial_table(ds)
    assert len(table) == 20
    for s in range(5):
        labels = sorted(lbl for _, subj, lbl in table if subj == s)
        assert labels == [0, 1, 2, 3]


def test_ingest_remaps_trial_ids_globally_unique():
    trials = [_raw_trial(0, 0, 1), _raw_trial(1, 0, 2)]
    ds = ingest(trials, ["hr", "eda"])
    assert len({tr for tr, _, _ in trial_table(ds)}) == 2


def test_ingest_rejects_a_gap_in_subject_ids():
    trials = [_raw_trial(subject, k, label) for subject in (0, 1, 50000)
              for k, label in enumerate((1, 2))]
    with pytest.raises(IngestionError, match=r"^subject id 2 is missing; ids must run 0\.\.S-1$"):
        ingest(trials, ["hr", "eda"])
    ds = ingest(trials[:4], ["hr", "eda"])
    assert ds.n_subjects == 2


def test_ingest_rejects_a_label_that_is_not_a_whole_number():
    # np.full(..., dtype=np.intp) would store label 1
    trials = [_raw_trial(0, 0, 1.5), _raw_trial(0, 1, 2)]
    with pytest.raises(IngestionError, match="^labels must be whole numbers"):
        ingest(trials, ["hr", "eda"])


def test_ingest_rejects_an_id_past_int64():
    with pytest.raises(IngestionError, match="^subject ids must be whole numbers"):
        ingest([_raw_trial(0, 0, 1), _raw_trial(2**63, 0, 1)], ["hr", "eda"])


def test_ingest_missing_channel_raises():
    bad = RawTrial(0, 0, 1, {"hr": (np.arange(3.0), np.ones(3))})
    with pytest.raises(IngestionError):
        ingest([bad, _raw_trial(0, 1, 2)], ["hr", "eda"])


def test_ingest_unlabeled_trial_raises():
    with pytest.raises(IngestionError):
        ingest([_raw_trial(0, 0, None)], ["hr", "eda"])


def test_ingest_empty_raises():
    with pytest.raises(IngestionError):
        ingest([], ["hr"])


def test_ingest_channel_order_follows_map():
    tr = RawTrial(0, 0, 1, {"a": (np.arange(2.0), np.array([1.0, 1.0])),
                            "b": (np.arange(2.0), np.array([9.0, 9.0]))})
    ds = ingest([tr], ["b", "a"])
    assert np.allclose(ds.x[0], [9.0, 1.0])


# -- dataset container ---------------------------------------------------------

def test_dataset_rejects_conflicting_trial_ids():
    with pytest.raises(ValueError, match="trial id"):
        Dataset(np.zeros((2, 1)), [0, 1], [0, 0], [5, 5], [0.0, 0.0], 1)
    # trials 7 and 3 both conflict; 7's conflicting row comes first, so 7 is named
    trial = [3, 7, 7, 3, 1]
    label = [0, 0, 1, 1, 0]
    with pytest.raises(ValueError, match="^trial id 7 is shared"):
        Dataset(np.zeros((5, 1)), label, [0] * 5, trial, [0.0] * 5, 1)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(ValueError, match="^task label out of range$"):
        Dataset(np.zeros((1, 1)), [-1], [0], [0], [0.0], 1)


def test_dataset_rejects_labels_that_are_not_whole_numbers():
    # a cast to intp would store [0 1]
    with pytest.raises(ValueError, match="^y must be whole numbers"):
        Dataset(np.zeros((2, 1)), [0.7, 1.2], [0, 0], [0, 1], [0.0, 0.0], 1)


@pytest.mark.parametrize("name", ["s", "trial"])
def test_dataset_turns_an_overflowing_id_into_a_value_error(name):
    ids = {"y": [0, 1], "s": [0, 0], "trial": [0, 1]}
    for big in (2**63, 10**5000):  # 10**5000 is past Python's 4300-digit limit on int to str
        ids[name] = [0, big]
        with pytest.raises(ValueError, match=f"^{name} must be whole numbers"):
            Dataset(np.zeros((2, 1)), ids["y"], ids["s"], ids["trial"], [0.0, 0.0], 1)


@pytest.mark.parametrize("t", [[0.0], np.zeros((4, 1))], ids=["one-value", "column"])
def test_dataset_checks_the_shape_of_t(t):
    # once accepted, these failed later: subset and save_csv with IndexError or TypeError
    with pytest.raises(ValueError, match=r"^t must have shape \(4,\)$"):
        Dataset(np.zeros((4, 1)), [0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 2, 3], t, 2)


def test_dataset_rejects_complex_times():
    # a plain float cast raised a bare TypeError here
    with pytest.raises(ValueError, match="^t must be real numbers, got complex128 values$"):
        Dataset(np.zeros((1, 1)), [0], [0], [0], [0.5 + 1j], 1)


@pytest.mark.parametrize("x", [np.zeros((2, 1)) + 1j, np.array([[1j], [0.0]], dtype=object)],
                         ids=["complex", "object-complex"])
def test_dataset_rejects_complex_features(x):
    # a plain float cast kept the real part after a ComplexWarning, or raised a TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^x must be real numbers"):
            Dataset(x, [0, 1], [0, 0], [0, 1], [0.0, 0.0], 1)


def test_dataset_rejects_a_stale_positional_class_count():
    # (x, y, s, trial, t, n_classes, n_subjects) would bind the counts to the wrong fields
    with pytest.raises(TypeError):
        Dataset(np.zeros((2, 1)), [0, 1], [0, 0], [0, 1], [0.0, 0.0], 2, 1)


def test_subset_rejects_row_ids_that_are_not_whole_numbers():
    # a cast to intp would return rows 0 and 1
    with pytest.raises(ValueError, match="^row ids must be whole numbers"):
        _toy_dataset().subset([0.5, 1.9])


@pytest.mark.parametrize("ids", [[-1], [30], [[0, 1]], 0],
                         ids=["negative", "past-end", "2d", "scalar"])
def test_row_ids_must_be_one_list_of_rows(ids):
    # numpy would wrap -1 to the last row, and raise IndexError on 30
    ds = _toy_dataset()  # 30 rows
    for call in (ds.subset, lambda i: normalize(ds, i),
                 lambda i: subsample_trials(ds, i, 0.5, seed=0)):
        with pytest.raises(ValueError, match=r"^row ids must be one list of rows in \[0, 30\)$"):
            call(ids)


def test_dataset_subset_preserves_metadata():
    ds = _toy_dataset()
    sub = ds.subset(np.array([0, 6, 12]))
    assert len(sub) == 3
    assert sub.n_subjects == ds.n_subjects


# -- normalization --------------------------------------------------------------

def test_normalize_zscore_hand_example():
    x = np.array([[3.0], [7.0], [9.0]])
    ds = Dataset(x, [0, 0, 0], [0, 0, 0], [0, 0, 0], [0.0, 1.0, 2.0], 1)
    out = normalize(ds, np.array([0, 1]))
    assert out.x[2, 0] == pytest.approx(2.0, abs=1e-12)
    mean, std = out.normalization
    assert mean == pytest.approx([5.0]) and std == pytest.approx([2.0])


def test_normalize_identity_on_standardized_channel():
    x = np.array([[-1.0], [1.0]])
    ds = Dataset(x, [0, 0], [0, 0], [0, 1], [0.0, 0.0], 1)
    out = normalize(ds, np.array([0, 1]))
    assert np.allclose(out.x, x)


def test_normalize_constant_channel_centered_not_scaled():
    x = np.full((4, 1), 6.0)
    ds = Dataset(x, [0] * 4, [0] * 4, [0, 0, 1, 1], [0.0] * 4, 1)
    out = normalize(ds, np.array([0, 1]))
    assert np.allclose(out.x, 0.0)


@pytest.mark.filterwarnings("error")  # and no numpy RuntimeWarning on the way
@pytest.mark.parametrize("column, train", [
    ([1.7e308, -1.7e308, 1.0, 2.0], [0, 1, 2, 3]),  # finite mean, overflowing std
    ([1.7e308, 1.7e308, 1.0, 2.0], [0, 1, 2, 3]),  # overflowing mean
    ([0.0, 1e-11, 1.0, 1e308], [0, 1]),  # finite statistics, overflowing z-score
], ids=["std", "mean", "z-score"])
def test_normalize_overflow_raises(column, train):
    ds = Dataset(np.array(column)[:, None], [0] * 4, [0] * 4, [0, 1, 2, 3], [0.0] * 4, 1)
    with pytest.raises(ValueError, match="^non-finite channel values$"):
        normalize(ds, np.array(train))


def test_normalize_empty_train_raises():
    with pytest.raises(ConfigError):
        normalize(_toy_dataset(), np.array([], dtype=np.intp))


# -- LOSO splits ---------------------------------------------------------------

def test_loso_one_plan_per_subject():
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=20, n_classes=4,
                                                samples_per_cell=2, seed=0))
    plans = loso_splits(ds, seed=0)
    assert len(plans) == 20
    assert [p.test_subject for p in plans] == list(range(20))


def test_loso_validation_trial_count():
    # 19 remaining subjects x 4 one-trial cells = 76 trials; 10% rounds to 8
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=20, n_classes=4,
                                                samples_per_cell=2, seed=1))
    plan = loso_splits(ds, val_fraction=0.1, seed=1)[0]
    assert len(np.unique(ds.trial[plan.val_ids])) == 8


def test_loso_partition_and_trial_integrity():
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=5, n_classes=3,
                                                samples_per_cell=6,
                                                trials_per_cell=2, seed=2))
    for plan in loso_splits(ds, seed=2):
        train, val, test = map(set, (plan.train_ids, plan.val_ids, plan.test_ids))
        assert not (train & val) and not (train & test) and not (val & test)
        assert len(train | val | test) == len(ds)
        assert set(ds.s[plan.test_ids]) == {plan.test_subject}
        assert plan.test_subject not in set(ds.s[plan.train_ids])
        assert not set(ds.trial[plan.train_ids]) & set(ds.trial[plan.val_ids])


def test_loso_single_subject_raises():
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=1, samples_per_cell=2))
    with pytest.raises(ConfigError):
        loso_splits(ds)


def test_loso_bad_fraction_raises():
    ds = _toy_dataset()
    with pytest.raises(ConfigError):
        loso_splits(ds, val_fraction=0.0)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_loso_partition_property(seed):
    rng = make_rng(seed, 42)
    spec = SyntheticSpec(n_subjects=int(rng.integers(2, 6)),
                         n_classes=int(rng.integers(2, 4)),
                         samples_per_cell=int(rng.integers(2, 8)),
                         seed=seed)
    ds, _, _ = generate_synthetic(spec)
    for plan in loso_splits(ds, seed=seed):
        covered = np.sort(np.concatenate([plan.train_ids, plan.val_ids, plan.test_ids]))
        assert np.array_equal(covered, np.arange(len(ds)))
        for ids in (plan.train_ids, plan.val_ids):
            for tr in np.unique(ds.trial[ids]):
                members = np.flatnonzero(ds.trial == tr)
                assert set(members) <= set(ids)


# -- trial subsampling ----------------------------------------------------------

def test_subsample_full_fraction_is_identity():
    ds = _toy_dataset()
    ids = np.arange(len(ds))
    assert np.array_equal(subsample_trials(ds, ids, 1.0, seed=0), ids)


def test_subsample_keeps_cells_with_multiple_trials():
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=3, n_classes=2,
                                                samples_per_cell=8,
                                                trials_per_cell=4, seed=3))
    ids = np.arange(len(ds))
    out = subsample_trials(ds, ids, 0.5, seed=3)
    assert 0 < out.size < ids.size
    kept_cells = {(int(a), int(b)) for a, b in zip(ds.s[out], ds.y[out])}
    assert kept_cells == {(s, y) for s in range(3) for y in range(2)}
    assert np.array_equal(out, np.sort(out))


def test_subsample_vanishing_cell_raises():
    ds = _toy_dataset()          # one trial per (subject, class) cell
    with pytest.raises(ConfigError, match="cells"):
        subsample_trials(ds, np.arange(len(ds)), 0.5, seed=0)


def test_subsample_bad_fraction_raises():
    ds = _toy_dataset()
    with pytest.raises(ConfigError):
        subsample_trials(ds, np.arange(len(ds)), 0.0, seed=0)


@pytest.mark.parametrize("fraction, n_val, n_kept", [
    (0.01, 1, 1), (0.0625, 1, 1), (0.125, 1, 1), (0.1875, 2, 2), (0.5, 4, 4),
    (0.9, 7, 7), (0.99, 7, 8)])
def test_trial_draws_round_half_up_within_their_bounds(fraction, n_val, n_kept):
    # 8 trials: round(8 * fraction), ties up, is kept in [1, 7] for validation
    # (one trial must be left to train on) and in [1, 8] for a training subsample
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=2, n_classes=1, samples_per_cell=8,
                                                trials_per_cell=8, seed=4))
    plan = loso_splits(ds, fraction, seed=4)[0]  # subject 1's 8 trials are split
    assert np.unique(ds.trial[plan.val_ids]).size == n_val
    ds = ds.subset(plan.test_ids)  # subject 0's 8 trials
    _, val_ids = holdout_split(ds, fraction, seed=4)
    assert np.unique(ds.trial[val_ids]).size == n_val
    kept = subsample_trials(ds, np.arange(len(ds)), fraction, seed=4)
    assert np.unique(ds.trial[kept]).size == n_kept


# -- synthetic generator ---------------------------------------------------------

def test_synthetic_shapes_and_factors():
    spec = SyntheticSpec(n_subjects=6, n_classes=4, n_channels=7,
                         samples_per_cell=10, seed=0)
    ds, T, U = generate_synthetic(spec)
    assert ds.x.shape == (240, 7)
    assert T.shape == (4, 7) and U.shape == (6, 7)
    assert np.allclose(np.linalg.norm(T, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0)


def test_synthetic_noiseless_cells_identical():
    spec = SyntheticSpec(n_subjects=2, n_classes=2, sigma=0.0,
                         samples_per_cell=5, seed=4)
    ds, T, U = generate_synthetic(spec)
    cell = ds.x[(ds.s == 1) & (ds.y == 1)]
    assert np.all(cell == cell[0])
    assert np.allclose(cell[0], T[1] + U[1])


def test_synthetic_trials_per_cell_partition():
    spec = SyntheticSpec(n_subjects=2, n_classes=2, samples_per_cell=10,
                         trials_per_cell=3, seed=5)
    ds, _, _ = generate_synthetic(spec)
    table = trial_table(ds)
    assert len(table) == 2 * 2 * 3
    for s in range(2):
        for y in range(2):
            cell_trials = {tr for tr, subj, lbl in table if subj == s and lbl == y}
            assert len(cell_trials) == 3


def test_synthetic_determinism():
    a, Ta, Ua = generate_synthetic(SyntheticSpec(seed=6, samples_per_cell=4))
    b, Tb, Ub = generate_synthetic(SyntheticSpec(seed=6, samples_per_cell=4))
    assert np.array_equal(a.x, b.x) and np.array_equal(Ta, Tb) and np.array_equal(Ua, Ub)


def _probe_accuracy(x, target, n_values, seed):
    rng = make_rng(seed, 77)
    perm = rng.permutation(x.shape[0])
    half = x.shape[0] // 2
    clf = fit("lda", x[perm[:half]], target[perm[:half]], seed=seed)
    return np.mean(clf.predict(x[perm[half:]]) == target[perm[half:]])


def test_synthetic_beta_zero_hides_subject():
    accs = []
    for seed in range(5):
        spec = SyntheticSpec(n_subjects=4, n_classes=3, beta=0.0, sigma=0.3,
                             samples_per_cell=40, seed=seed)
        ds, _, _ = generate_synthetic(spec)
        accs.append(_probe_accuracy(ds.x, ds.s, 4, seed))
    assert np.mean(accs) <= 0.25 + 0.05


def test_synthetic_alpha_zero_hides_task():
    accs = []
    for seed in range(5):
        spec = SyntheticSpec(n_subjects=4, n_classes=3, alpha=0.0, sigma=0.3,
                             samples_per_cell=40, seed=seed)
        ds, _, _ = generate_synthetic(spec)
        accs.append(_probe_accuracy(ds.x, ds.y, 3, seed))
    assert np.mean(accs) <= 1.0 / 3.0 + 0.05


def test_synthetic_task_signal_learnable():
    spec = SyntheticSpec(alpha=1.0, beta=1.0, sigma=0.1, samples_per_cell=30, seed=7)
    ds, _, _ = generate_synthetic(spec)
    assert _probe_accuracy(ds.x, ds.y, 4, 7) >= 0.95


def test_synthetic_rejects_bad_spec():
    with pytest.raises(ConfigError):
        SyntheticSpec(sigma=-0.1)
    with pytest.raises(ConfigError):
        SyntheticSpec(alpha=-1.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(samples_per_cell=4, trials_per_cell=5)


# -- interchange CSV -------------------------------------------------------------

def test_csv_roundtrip_bit_exact(tmp_path):
    ds, _, _ = generate_synthetic(SyntheticSpec(samples_per_cell=3, seed=8))
    path = tmp_path / "data.csv"
    save_csv(path, ds)
    back = load_csv(path)
    assert np.array_equal(ds.x, back.x)
    assert np.array_equal(ds.y, back.y)
    assert np.array_equal(ds.s, back.s)
    assert np.array_equal(ds.trial, back.trial)
    assert np.array_equal(ds.t, back.t)


def test_csv_header_exact(tmp_path):
    ds, _, _ = generate_synthetic(SyntheticSpec(n_channels=7, samples_per_cell=1, seed=9))
    path = tmp_path / "data.csv"
    save_csv(path, ds)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "subject,trial,label,t,ch0,ch1,ch2,ch3,ch4,ch5,ch6"
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_csv_bad_header_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(path)


@pytest.mark.parametrize("row, width", [("0,0,0,0.0,1.0", 5), ("0,0,0,0.0,1.0,2.0,3.0", 7)],
                         ids=["short", "long"])
def test_csv_wrong_row_width_raises(tmp_path, row, width):
    path = tmp_path / "data.csv"
    path.write_text(f"subject,trial,label,t,ch0,ch1\n1,1,0,0.0,1.0,2.0\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(IngestionError, match=f"data.csv:3: expected 6 columns, got {width}"):
        load_csv(path)


def test_synthetic_sidecar_roundtrip(tmp_path):
    spec = SyntheticSpec(n_subjects=3, samples_per_cell=2, trials_per_cell=2, seed=10)
    ds, T, U = generate_synthetic(spec)
    path = tmp_path / "synth.csv"
    save_synthetic(path, ds, spec, T, U)
    spec2, T2, U2 = load_synthetic_sidecar(path)
    assert spec2 == spec
    assert np.allclose(T, T2) and np.allclose(U, U2)


def test_synthetic_sidecar_rejects_unknown_spec_keys(tmp_path):
    spec = SyntheticSpec(n_subjects=3, samples_per_cell=2)
    path = tmp_path / "synth.csv"
    ds, T, U = generate_synthetic(spec)
    save_synthetic(path, ds, spec, T, U)
    sidecar = tmp_path / "synth.csv.factors.json"
    payload = json.loads(sidecar.read_text(encoding="utf-8"))
    payload["spec"]["n_subject"] = 3
    sidecar.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^unknown synthetic keys \['n_subject'\]$"):
        load_synthetic_sidecar(path)


@pytest.mark.parametrize("text, reason", [
    ("[" * 100_000, "RecursionError: maximum recursion depth exceeded"),
    ("{not json", "Expecting property name enclosed in double quotes"),
    ("{}", "KeyError: 'spec'"),
    ('{"spec": {}, "task_templates": []}', "KeyError: 'subject_offsets'"),
    ("[]", "TypeError: list indices must be integers or slices, not str"),
    ('{"spec": {}, "task_templates": [[1.0], [1.0, 2.0]], "subject_offsets": []}',
     "setting an array element with a sequence"),
], ids=["too-deep", "not-json", "empty-object", "missing-offsets", "not-an-object",
        "ragged-templates"])
def test_bad_synthetic_sidecar_raises_value_error_naming_the_path(tmp_path, text, reason):
    sidecar = tmp_path / "synth.csv.factors.json"
    sidecar.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^bad synthetic sidecar {re.escape(str(sidecar))}: "
                                         f"{re.escape(reason)}") as caught:
        load_synthetic_sidecar(tmp_path / "synth.csv")
    assert type(caught.value) is ValueError


def test_missing_synthetic_sidecar_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_synthetic_sidecar(tmp_path / "synth.csv")
