"""Property tests: a config or interchange CSV that one mutation made invalid exits 1,
and the library's entry points take any id array without a crash or a silent cast.

Each CLI case runs `dacae loso` in-process on a mutated copy of a small valid input
and checks for exit code 1, a `configuration error:` line on stderr, no
traceback and no output tree. Every mutation makes the input invalid, and
none asks for more workers, epochs or rows than the valid input.

Each library case hands one entry point a valid input with one id array (labels,
subjects, trials, rows or targets) given an edge value or an edge shape; see
"library entry points" below. The classifiers' predict, decision_scores and
accuracy also take features with edge values; see "edge feature values". The split
helpers take edge datasets, fractions and seeds; see "split helpers".
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dacae import (KINDS, Dataset, RawTrial, SyntheticSpec, accuracy, fit, generate_synthetic,
                   holdout_split, ingest, load_csv, loso_splits, normalize, save_csv,
                   softmax_cross_entropy, subsample_trials)
from dacae.cli import main

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

SYNTHETIC = {"n_subjects": 3, "n_classes": 2, "n_channels": 4, "samples_per_cell": 12,
             "trials_per_cell": 2, "alpha": 1.0, "beta": 1.0, "sigma": 0.3, "seed": 0}
CONFIG = {"synthetic": SYNTHETIC, "variants": ["AE", "DA-cAE"], "classifiers": ["lda"],
          "lambda_a": 0.1, "lambda_n": 0.01, "r_n": None, "latent_dim": 4,
          "learning_rate": 0.05, "batch_size": 16, "epochs": 1, "val_fraction": 0.1,
          "fractions": [0.5, 1.0], "sweep_classifier": "lda", "sweep_lambda_n": [0.0, 0.01],
          "sweep_lambda_a": [0.0, 0.1], "seed": 0, "jobs": 1}
# written in place of the JSON string BIG, since json.dumps cannot emit the literal
BIG = "__1e999__"


def _run(config_text: str, dataset: bytes | None = None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if dataset is not None:
            (root / "data.csv").write_bytes(dataset)
            config_text = config_text.replace("@DATA@", str(root / "data.csv"))
        (root / "config.json").write_text(config_text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["loso", "--config", str(root / "config.json"),
                         "--out", str(root / "out")])
        assert code == 1, (code, config_text[:300], err.getvalue())
        assert "configuration error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not (root / "out").exists()


def _dump(config: dict) -> str:
    return json.dumps(config).replace(json.dumps(BIG), "1e999")


# -- configs --------------------------------------------------------------------------

# field -> (JSON type, values out of its valid range)
TOP = {
    "dataset": ("str?", None),
    "synthetic": ("object", None),
    "variants": ("list", None),
    "classifiers": ("list", None),
    "lambda_a": ("float", st.floats(max_value=-1e-9)),
    "lambda_n": ("float", st.floats(max_value=-1e-9)),
    "r_n": ("float?", st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0))),
    "latent_dim": ("int", st.integers(max_value=0)),
    "learning_rate": ("float", st.floats(max_value=0.0)),
    "batch_size": ("int", st.integers(max_value=0)),
    "epochs": ("int", st.integers(max_value=0)),
    "val_fraction": ("float", st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0))),
    "fractions": ("list", None),
    "sweep_classifier": ("str", None),
    "sweep_lambda_n": ("list", None),
    "sweep_lambda_a": ("list", None),
    "seed": ("int", st.integers(max_value=-1)),
    "jobs": ("int", st.integers(max_value=0)),
    "out": ("str", None),
}
SYNTH = {
    "n_subjects": ("int", st.integers(max_value=0)),
    "n_classes": ("int", st.integers(max_value=0)),
    "n_channels": ("int", st.integers(max_value=0)),
    "samples_per_cell": ("int", st.integers(max_value=0)),
    "trials_per_cell": ("int", st.one_of(st.integers(max_value=0), st.integers(min_value=13))),
    "alpha": ("float", st.floats(max_value=-1e-9)),
    "beta": ("float", st.floats(max_value=-1e-9)),
    "sigma": ("float", st.floats(max_value=-1e-9)),
    "seed": ("int", st.integers(max_value=-1)),
}
# list field -> values no entry may take
LIST_ENTRY_OUT_OF_RANGE = {
    "fractions": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True)),
    "sweep_lambda_n": st.floats(max_value=-1e-9),
    "sweep_lambda_a": st.floats(max_value=-1e-9),
}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"), BIG])

_others = (st.booleans(), st.just({}), st.lists(st.just(None), min_size=1, max_size=2))
WRONG_TYPE = {
    "int": st.one_of(st.none(), st.floats(allow_nan=False), st.text(max_size=3), *_others),
    "float": st.one_of(st.none(), st.text(max_size=3), *_others),
    "float?": st.one_of(st.text(max_size=3), *_others),
    "str": st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), *_others),
    "str?": st.one_of(st.integers(), st.floats(allow_nan=False), *_others),
    "list": st.one_of(st.none(), st.integers(), st.text(max_size=3), st.booleans(), st.just({}),
                      st.lists(st.one_of(st.booleans(), st.none(), st.just({})),
                               min_size=1, max_size=2)),
    "object": st.one_of(st.none(), st.integers(), st.text(max_size=3), st.booleans(),
                        st.lists(st.integers(), max_size=2)),
}


@st.composite
def bad_configs(draw):
    config = json.loads(json.dumps(CONFIG))
    nested = draw(st.booleans())
    target, table = (config["synthetic"], SYNTH) if nested else (config, TOP)
    name = draw(st.sampled_from(sorted(table)))
    kind, out_of_range = table[name]
    lists = [k for k in TOP if TOP[k][0] == "list"]
    mutation = draw(st.sampled_from(["type", "non-finite", "unknown-key", "list", "range"]))
    if mutation == "unknown-key":
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in table))
        target[key] = draw(st.integers(0, 3))
    elif mutation == "non-finite" and kind.startswith("float"):
        target[name] = draw(NON_FINITE)
    elif mutation == "non-finite":  # a non-finite entry of a number list
        name = draw(st.sampled_from(sorted(LIST_ENTRY_OUT_OF_RANGE)))
        config[name] = config[name] + [draw(NON_FINITE)]
    elif mutation == "list":
        name = draw(st.sampled_from(lists))
        values = config[name]
        config[name] = draw(st.sampled_from([[], values + values[:1], values[::-1] + values]))
    elif mutation == "range" and out_of_range is not None:
        target[name] = draw(out_of_range)
    elif mutation == "range":
        name = draw(st.sampled_from(sorted(LIST_ENTRY_OUT_OF_RANGE)))
        config[name] = config[name] + [draw(LIST_ENTRY_OUT_OF_RANGE[name])]
    else:
        target[name] = draw(WRONG_TYPE[kind])
    return _dump(config)


@SETTINGS
@given(bad_configs())
@example(_dump({**CONFIG, "sweep_lambda_a": [0.0, -0.5]}))
@example(_dump({**CONFIG, "synthetic": {**SYNTHETIC, "seed": -1}}))
@example(_dump({**CONFIG, "fractions": [0.5, BIG]}))
def test_mutated_config_exits_1(config_text):
    _run(config_text)


# -- interchange CSVs -------------------------------------------------------------------

def _valid_csv() -> list[list[str]]:
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=3, n_classes=2, n_channels=2,
                                                samples_per_cell=4, trials_per_cell=2))
    with tempfile.TemporaryDirectory() as tmp:
        save_csv(Path(tmp) / "data.csv", ds)
        text = (Path(tmp) / "data.csv").read_text(encoding="utf-8")
    return [line.split(",") for line in text.splitlines()]


ROWS = _valid_csv()
CSV_CONFIG = _dump({**CONFIG, "dataset": "@DATA@"})
CELL_TEXT = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
                    max_size=6)


def _parses(text: str, column: int) -> bool:
    try:
        (int if column < 3 else float)(text)
    except ValueError:
        return False
    return True


def _encode(rows: list[list[str]]) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode("utf-8")


@st.composite
def bad_csvs(draw):
    rows = [list(row) for row in ROWS]
    mutation = draw(st.sampled_from(["header", "width", "cell", "utf8", "shared-trial"]))
    i = draw(st.integers(1, len(rows) - 1))
    if mutation == "header":
        j = draw(st.integers(0, 3))
        rows[0][j] = draw(CELL_TEXT.filter(lambda t: t != ROWS[0][j]))
    elif mutation == "width":
        width = draw(st.integers(0, len(rows[i]) + 2).filter(lambda w: w != len(rows[i])))
        rows[i] = (rows[i] + ["0", "0"])[:width]
    elif mutation == "cell":
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(CELL_TEXT.filter(lambda t: not _parses(t, j)))
    elif mutation == "shared-trial":  # row i takes a trial id of another subject
        other = draw(st.sampled_from([r for r in rows[1:] if r[0] != rows[i][0]]))
        rows[i][1] = other[1]
    if mutation != "utf8":
        return _encode(rows)
    data = _encode(rows)
    at = draw(st.integers(0, len(data)))
    junk = draw(st.binary(min_size=1, max_size=3))
    mutated = data[:at] + junk + data[at:]
    try:
        mutated.decode("utf-8")
    except UnicodeDecodeError:
        return mutated
    return mutated + b"\xff"


@SETTINGS
@given(bad_csvs())
def test_mutated_csv_exits_1(data):
    _run(CSV_CONFIG, data)


# -- library entry points ----------------------------------------------------------------
#
# Each call runs under np.errstate(all="raise") with warnings as errors. It must return a
# valid object that holds exactly the ids it was given, or raise ValueError (which
# ConfigError and IngestionError are): never IndexError, TypeError, OverflowError,
# FloatingPointError or a warning.

LIB_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

EDGE_IDS = st.one_of(
    st.integers(-3, 6),  # negatives, and values past the largest id
    st.sampled_from([2**63 - 1, 2**63, 2**64, -2**63 - 1]),
    st.floats(),  # fractions, NaN, +-inf, magnitudes past 2**63
    st.sampled_from([0.5, 2.0, -0.0, 2.0**63, float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
)
EDGE_DTYPES = st.sampled_from([np.float64, np.float32, np.uint64, np.int8, bool])


@st.composite
def edge_ids(draw, base, shapes=True):
    """base, a list of whole-number ids, with one edge value, dtype or shape, emptied,
    with a gap opened above a cut, or all set to 0; without shapes, a list as long."""
    ids = list(base)
    mutation = draw(st.sampled_from(["value", "dtype", "gap", "single"]
                                    + (["shape", "empty"] if shapes else [])))
    if mutation == "value":
        ids[draw(st.integers(0, len(ids) - 1))] = draw(EDGE_IDS)
    elif mutation == "dtype":
        ids = np.asarray(ids).astype(draw(EDGE_DTYPES))
        return ids if shapes else ids.tolist()
    elif mutation == "gap":
        cut = draw(st.integers(0, max(ids)))
        ids = [v + draw(st.integers(1, 3)) if v >= cut else v for v in ids]
    elif mutation == "single":
        ids = [0] * len(ids)
    elif mutation == "shape":
        a = np.asarray(ids)
        return draw(st.sampled_from([a[:, None], a[None], a[:-1], np.append(a, a[:1]), a[0]]))
    else:
        return draw(st.sampled_from([[], np.empty(0), np.empty((0, 1), dtype=np.intp)]))
    return ids


def _call(fn, *args):
    """fn(*args), or None when it raises ValueError with a message; any other exception
    propagates."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except ValueError as err:
            assert str(err), f"{fn.__name__} raised {type(err).__name__} with no message"
            return None


def _same(stored: np.ndarray, given) -> bool:
    """stored is an intp array holding exactly the given ids, in the given shape."""
    given = np.asarray(given)
    return (stored.dtype == np.intp and stored.shape == given.shape
            and stored.tolist() == given.tolist())


DS, _, _ = generate_synthetic(SyntheticSpec(n_subjects=2, n_classes=2, n_channels=2,
                                            samples_per_cell=2, trials_per_cell=2))
COLUMNS = {"y": DS.y.tolist(), "s": DS.s.tolist(), "trial": DS.trial.tolist(),
           "t": DS.t.astype(int).tolist()}


@LIB_SETTINGS
@given(st.sampled_from(sorted(COLUMNS)).flatmap(
    lambda name: st.tuples(st.just(name), edge_ids(COLUMNS[name]))))
@example(("y", [0.7, 1.2] + COLUMNS["y"][2:]))  # was stored as [0 1 ...]
@example(("trial", [2**63] + COLUMNS["trial"][1:]))  # raised OverflowError
@example(("t", [0.0]))  # was accepted; subset and save_csv failed later
@example(("t", np.zeros((8, 1))))
def test_dataset_holds_exactly_the_ids_given(case):
    name, given = case
    columns = {**COLUMNS, name: given}
    ds = _call(Dataset, DS.x, columns["y"], columns["s"], columns["trial"], columns["t"],
               DS.n_subjects)
    if ds is not None:
        for col in ("y", "s", "trial"):
            assert _same(getattr(ds, col), columns[col]), col
        assert ds.t.shape == (len(ds),) and ds.y.min() >= 0 and ds.s.max() < ds.n_subjects


def _raw_trials(subjects, numbers, labels) -> list[RawTrial]:
    times = np.arange(2.0)
    return [RawTrial(s, k, y, {"hr": (times, times + y)}) for s, k, y in
            zip(subjects, numbers, labels)]


# subject 0 has two relaxation trials, of which ingest keeps the first
RAW = {"subject": [0, 0, 0, 1, 1], "trial": [0, 1, 2, 0, 1], "label": [0, 0, 1, 0, 2]}


@LIB_SETTINGS
@given(st.sampled_from(sorted(RAW)).flatmap(
    lambda name: st.tuples(st.just(name), edge_ids(RAW[name], shapes=False))))
@example(("label", [0, 0, 1.5, 0, 2]))  # was stored as label 1
def test_ingest_holds_exactly_the_ids_given(case):
    name, given = case
    columns = {**RAW, name: given}
    ds = _call(ingest, _raw_trials(columns["subject"], columns["trial"], columns["label"]),
               ["hr"])
    if ds is not None:
        assert set(ds.s.tolist()) == set(columns["subject"])
        assert set(ds.y.tolist()) <= set(columns["label"])
        assert ds.n_subjects == max(columns["subject"]) + 1


@LIB_SETTINGS
@given(st.integers(0, 2).flatmap(
    lambda col: st.tuples(st.just(col), edge_ids([int(r[col]) for r in ROWS[1:]],
                                                 shapes=False))))
@example((1, [2**63] + [int(r[1]) for r in ROWS[2:]]))
def test_load_csv_holds_exactly_the_ids_given(case):
    column, given = case
    rows = [list(row) for row in ROWS]
    for row, value in zip(rows[1:], given):
        row[column] = str(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(_encode(rows))
        ds = _call(load_csv, path)
    if ds is not None:
        assert _same((ds.s, ds.trial, ds.y)[column], given)


ROW_IDS = [0, 3, 5, 6]


@LIB_SETTINGS
@given(edge_ids(ROW_IDS))
@example([0.5, 1.9])  # was rows 0 and 1
@example([-1])  # was the last row
def test_subset_and_normalize_take_exactly_the_rows_given(ids):
    sub = _call(DS.subset, ids)
    if sub is not None:
        assert sub.trial.tolist() == [DS.trial[int(i)] for i in np.asarray(ids).tolist()]
    normed = _call(normalize, DS, ids)
    if normed is not None:
        mean, std = normed.normalization
        assert np.array_equal(mean, DS.x[np.asarray(ids, dtype=np.intp)].mean(axis=0))
        assert np.all(np.isfinite(normed.x)) and np.all(std > 0)


Z = DS.x
LABELS = DS.y.tolist()


@LIB_SETTINGS
@given(st.sampled_from(KINDS), edge_ids(LABELS))
@example("lda", (DS.y + 0.9).tolist())  # was fit to classes [0 1]
def test_fit_learns_exactly_the_labels_given(kind, labels):
    clf = _call(fit, kind, Z, labels)
    if clf is not None:
        assert _same(clf.classes, np.unique(labels))
        assert set(clf.predict(Z).tolist()) <= set(np.asarray(labels).tolist())


FITTED = {kind: fit(kind, Z, LABELS) for kind in KINDS}


@LIB_SETTINGS
@given(st.sampled_from(KINDS), edge_ids(LABELS))
@example("lda", (DS.y + 0.7).tolist())  # was scored as the true labels
def test_accuracy_scores_exactly_the_labels_given(kind, labels):
    acc = _call(accuracy, FITTED[kind], Z, labels)
    if acc is not None:
        predicted = FITTED[kind].predict(Z).tolist()
        assert acc == np.mean([p == y for p, y in zip(predicted, np.asarray(labels).tolist())])


# -- split helpers --------------------------------------------------------------------------
#
# loso_splits, holdout_split and subsample_trials take a dataset of whole trials, with one
# subject or several, one trial per cell or more, and trial ids near either end of int64,
# and a fraction at or past the edges of its range. Each call returns plans whose parts are
# disjoint, cover what they split, keep every trial on one side and leave no side empty
# that a fold reads, or raises ValueError (ConfigError and IngestionError are ValueErrors)
# with a message.

EDGE_FRACTIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 0.5, 0.9, 1.0 - 2**-53, 1.0, 1.5, -0.1,
                     float("nan"), float("inf"), float("-inf"), 1, np.float32(0.3)]),
    st.floats(0.0, 1.0),
)
EDGE_SEEDS = st.one_of(st.integers(0, 5), st.sampled_from([2**63 - 1, 2**64 - 1, -1]))


@st.composite
def split_datasets(draw):
    """Rows of whole trials: 1-4 subjects (some ids possibly absent), 1-2 classes each,
    1-3 trials per cell and 1-2 rows per trial, trial ids from near 0, 2**63 or -2**63."""
    n_subjects = draw(st.integers(1, 4))
    present = draw(st.lists(st.sampled_from(range(n_subjects)), min_size=1, unique=True))
    base = draw(st.sampled_from([0, 2**63 - 64, -2**63]))
    cells = [(s, c, draw(st.integers(1, 3)))
             for s in sorted(present) for c in range(draw(st.integers(1, 2)))]
    trial_ids = draw(st.permutations(range(sum(k for *_, k in cells))))
    rows, t = [], 0
    for s, c, k in cells:
        for _ in range(k):
            rows += [(s, c, base + trial_ids[t])] * draw(st.integers(1, 2))
            t += 1
    s, y, trial = (np.array(col, dtype=np.int64) for col in zip(*rows))
    x = np.arange(2.0 * len(rows)).reshape(-1, 2)
    return Dataset(x, y, s, trial, np.zeros(len(rows)), n_subjects)


def _whole_trials(ds, *parts) -> bool:
    """No trial has rows in more than one of the parts."""
    owners = [set(ds.trial[p].tolist()) for p in parts]
    return sum(map(len, owners)) == len(set().union(*owners))


def _disjoint_cover(n, *parts) -> bool:
    ids = np.concatenate(parts)
    return sorted(ids.tolist()) == list(range(n)) and all(
        np.all(np.diff(p) > 0) for p in parts)


ONE_TRIAL_EACH = Dataset(np.zeros((2, 2)), [0, 0], [0, 1], [0, 1], [0.0, 0.0], 2)


@LIB_SETTINGS
@given(split_datasets(), EDGE_FRACTIONS, EDGE_SEEDS)
@example(ONE_TRIAL_EACH, 0.1, 0)  # each plan had an empty validation split
def test_loso_splits_are_disjoint_and_cover_or_rejected(ds, fraction, seed):
    plans = _call(loso_splits, ds, fraction, seed)
    if plans is None:
        return
    assert [p.test_subject for p in plans] == np.unique(ds.s).tolist()
    for plan in plans:
        assert np.array_equal(plan.test_ids, np.flatnonzero(ds.s == plan.test_subject))
        assert _disjoint_cover(len(ds), plan.train_ids, plan.val_ids, plan.test_ids)
        assert _whole_trials(ds, plan.train_ids, plan.val_ids)
        assert plan.train_ids.size and plan.val_ids.size and plan.test_ids.size


@LIB_SETTINGS
@given(split_datasets(), EDGE_FRACTIONS, EDGE_SEEDS)
def test_holdout_split_is_disjoint_and_covers_or_rejected(ds, fraction, seed):
    split = _call(holdout_split, ds, fraction, seed)
    if split is not None:
        train, val = split
        assert _disjoint_cover(len(ds), train, val) and _whole_trials(ds, train, val)
        assert train.size and val.size


@LIB_SETTINGS
@given(split_datasets().flatmap(lambda ds: st.tuples(
    st.just(ds), st.lists(st.integers(0, len(ds) - 1), unique=True))), EDGE_FRACTIONS,
    EDGE_SEEDS)
def test_subsample_trials_keeps_whole_trials_and_cells_or_rejected(case, fraction, seed):
    ds, ids = case
    ids = np.array(ids, dtype=np.intp)
    kept = _call(subsample_trials, ds, ids, fraction, seed)
    if kept is None:
        return
    assert kept.tolist() == [i for i in ids.tolist() if i in set(kept.tolist())]  # ids' order
    dropped = np.setdiff1d(ids, kept)
    assert _whole_trials(ds, kept, dropped)
    cells = {(a, b) for a, b in zip(ds.s[ids].tolist(), ds.y[ids].tolist())}
    assert cells == {(a, b) for a, b in zip(ds.s[kept].tolist(), ds.y[kept].tolist())}
    if fraction == 1.0:
        assert kept is ids


# -- edge feature values ------------------------------------------------------------------
#
# predict, decision_scores and accuracy take features holding NaN, +-inf, values at the
# float limit, signed zeros, a constant column or no rows at all. Each call returns a valid
# answer (finite scores, labels the classifier was fit to, an accuracy in [0, 1]) or raises
# ValueError: always for a NaN or an infinity, never for features of ordinary size.

EDGE_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0]),
    st.floats(-1e3, 1e3),
)


@st.composite
def edge_features(draw):
    n, d = draw(st.integers(0, 5)), Z.shape[1]
    z = np.array([draw(EDGE_VALUES) for _ in range(n * d)]).reshape(n, d)
    if n and draw(st.booleans()):
        z[:, draw(st.integers(0, d - 1))] = draw(EDGE_VALUES)  # a constant column
    return z


@LIB_SETTINGS
@given(st.sampled_from(KINDS), edge_features())
@example("knn", np.array([[np.nan, 0.0]]))  # decision_scores gave votes for it
@example("knn", np.array([[1e308, -1e308]]))  # predict raised FloatingPointError
@example("mlp", np.full((2, 2), -1e308))
@example("lda", np.empty((0, 2)))
def test_edge_features_are_scored_validly_or_rejected(kind, z):
    clf = FITTED[kind]
    labels = clf.classes[np.arange(len(z)) % clf.classes.size].tolist()
    scores = _call(clf.decision_scores, z)
    predicted = _call(clf.predict, z)
    acc = _call(accuracy, clf, z, labels)
    if not np.all(np.isfinite(z)):
        assert scores is None
    if np.all(np.abs(z) <= 1e3):  # no NaN, no infinity, nothing near the float limit
        assert scores is not None
    assert (scores is None) == (predicted is None)
    assert (acc is None) == (predicted is None or len(z) == 0)
    if scores is not None:
        assert scores.shape == (len(z), clf.classes.size) and np.all(np.isfinite(scores))
        assert predicted.tolist() == clf.classes[np.argmax(scores, axis=1)].tolist()
    if acc is not None:
        assert acc == np.mean(predicted == np.array(labels))


LOGITS = np.linspace(-1.0, 1.0, 12).reshape(4, 3)


@LIB_SETTINGS
@given(edge_ids([0, 2, 1, 2]))
@example([0.5, 2.7, 1, 2])  # was a loss against [0 2 1 2]
def test_softmax_cross_entropy_takes_exactly_the_targets_given(targets):
    out = _call(softmax_cross_entropy, LOGITS, targets)
    if out is not None:
        loss, grad = out
        given = np.asarray(targets)
        assert given.shape == (4,) and given.tolist() == given.astype(np.intp).tolist()
        assert np.isfinite(loss) and grad.shape == LOGITS.shape
