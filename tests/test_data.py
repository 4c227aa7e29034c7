"""Data pipeline: resampling, ingestion, normalization, splits, synthetic data."""

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


def _toy_dataset(n_subjects=3, n_classes=2, per_trial=5):
    rows = []
    for s in range(n_subjects):
        for y in range(n_classes):
            tr = s * n_classes + y
            for t in range(per_trial):
                rows.append((float(s), float(y), s, y, tr, float(t)))
    x = np.array([[r[0], r[1]] for r in rows])
    return Dataset(x, [r[3] for r in rows], [r[2] for r in rows],
                   [r[4] for r in rows], [r[5] for r in rows],
                   n_classes, n_subjects)


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
    table = ds.trial_table()
    assert len(table) == 20
    for s in range(5):
        labels = sorted(lbl for _, subj, lbl in table if subj == s)
        assert labels == [0, 1, 2, 3]


def test_ingest_remaps_trial_ids_globally_unique():
    trials = [_raw_trial(0, 0, 1), _raw_trial(1, 0, 2)]
    ds = ingest(trials, ["hr", "eda"], n_subjects=2)
    assert len({tr for tr, _, _ in ds.trial_table()}) == 2


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
    ds = ingest([tr], ["b", "a"], n_subjects=1)
    assert np.allclose(ds.x[0], [9.0, 1.0])


# -- dataset container ---------------------------------------------------------

def test_dataset_rejects_conflicting_trial_ids():
    with pytest.raises(ValueError, match="trial id"):
        Dataset(np.zeros((2, 1)), [0, 1], [0, 0], [5, 5], [0.0, 0.0], 2, 1)
    # trials 7 and 3 both conflict; 7's conflicting row comes first, so 7 is named
    trial = [3, 7, 7, 3, 1]
    label = [0, 0, 1, 1, 0]
    with pytest.raises(ValueError, match="^trial id 7 is shared"):
        Dataset(np.zeros((5, 1)), label, [0] * 5, trial, [0.0] * 5, 2, 1)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), [3], [0], [0], [0.0], 2, 1)


def test_dataset_subset_preserves_metadata():
    ds = _toy_dataset()
    sub = ds.subset(np.array([0, 6, 12]))
    assert len(sub) == 3
    assert sub.n_classes == ds.n_classes and sub.n_subjects == ds.n_subjects


# -- normalization --------------------------------------------------------------

def test_normalize_zscore_hand_example():
    x = np.array([[3.0], [7.0], [9.0]])
    ds = Dataset(x, [0, 0, 0], [0, 0, 0], [0, 0, 0], [0.0, 1.0, 2.0], 1, 1)
    out = normalize(ds, np.array([0, 1]))
    assert out.x[2, 0] == pytest.approx(2.0, abs=1e-12)
    mean, std = out.normalization
    assert mean == pytest.approx([5.0]) and std == pytest.approx([2.0])


def test_normalize_identity_on_standardized_channel():
    x = np.array([[-1.0], [1.0]])
    ds = Dataset(x, [0, 0], [0, 0], [0, 1], [0.0, 0.0], 1, 1)
    out = normalize(ds, np.array([0, 1]))
    assert np.allclose(out.x, x)


def test_normalize_constant_channel_centered_not_scaled():
    x = np.full((4, 1), 6.0)
    ds = Dataset(x, [0] * 4, [0] * 4, [0, 0, 1, 1], [0.0] * 4, 1, 1)
    out = normalize(ds, np.array([0, 1]))
    assert np.allclose(out.x, 0.0)


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
    table = ds.trial_table()
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
