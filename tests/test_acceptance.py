"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each criterion is a single test so the verbose listing gives one pass/fail
line apiece, and each test prints the values it gates on (visible with -rA
or on failure). Criteria 5 and 6 also cover a real recorded dataset when
DACAE_REAL_DATA names an interchange CSV; without it those halves are
reported as skipped inside the still-passing synthetic half.
"""

import filecmp
import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dacae import (
    KINDS,
    ExperimentConfig,
    HyperConfig,
    RawTrial,
    SgdConfig,
    SyntheticSpec,
    accuracy,
    build_mlp,
    dacae_loss,
    decoder_input,
    encode,
    fit,
    fit_feature_extractor,
    generate_synthetic,
    grad_check,
    holdout_split,
    ingest,
    init_params,
    load_csv,
    loso_splits,
    make_rng,
    mse_loss,
    normalize,
    probe_accuracies,
    run_loso,
    softmax_cross_entropy,
)
from dacae.classifiers import KnnClassifier, best_split
from helpers import gini_impurity, trial_table

REAL_DATA = os.environ.get("DACAE_REAL_DATA")

# Tuned per-classifier weights and the transfer accuracies they should land
# within 4 points of when the real recorded dataset is supplied.
REAL_REFERENCE = {
    "mlp": (0.01, 0.005, 0.810),
    "knn": (0.1, 0.01, 0.770),
    "tree": (0.2, 0.01, 0.773),
    "lda": (0.2, 0.2, 0.843),
    "svm": (0.2, 0.005, 0.855),
    "logreg": (0.2, 0.2, 0.853),
}


def standard_spec(seed, **overrides):
    """The 6-subject, 4-class, 7-channel synthetic benchmark generator."""
    base = dict(n_subjects=6, n_classes=4, n_channels=7, samples_per_cell=200,
                alpha=1.0, beta=1.0, sigma=0.3, seed=seed)
    base.update(overrides)
    return SyntheticSpec(**base)


# Every (lambda_a, lambda_n) point criteria 3 and 4 probe; each seed trains them as one stack
PROBE_POINTS = ((0.1, 0.01), (0.0, 0.005), (0.01, 0.005), (0.1, 0.005), (0.5, 0.005),
                (0.0, 0.0), (0.0, 0.01), (0.0, 0.2))


@functools.cache
def probe_stack(seed):
    """Train DA-cAE at every PROBE_POINTS point on a 90% split, as one stack, without
    the per-epoch logs (log=False), which nothing here reads.

    Returns each point's head probes on the held-out 10%, read replica by
    replica, and the seconds the whole call took. Replica r equals a solo fit
    of point r bit for bit, so each point's probes are those of its own run.
    """
    started = time.perf_counter()
    ds, _, _ = generate_synthetic(standard_spec(seed))
    train_ids, val_ids = holdout_split(ds, 0.1, seed)
    ds = normalize(ds, train_ids)
    configs = [HyperConfig(
        lambda_a=lambda_a, lambda_n=lambda_n, r_n=1.0 / 3.0, latent_dim=15,
        variant="DA-cAE",
        sgd=SgdConfig(learning_rate=0.1, batch_size=32, epochs=50, seed=seed))
        for lambda_a, lambda_n in PROBE_POINTS]
    stack, _ = fit_feature_extractor(ds.subset(train_ids), configs, log=False)
    val = ds.subset(val_ids)
    probes = {}
    for point, params in zip(PROBE_POINTS, stack.replicas()):
        probes[point] = probe_accuracies(params, encode(params, val.x), val.s)
    return probes, time.perf_counter() - started


def probe_run(lambda_a, lambda_n, seed):
    """Head probes (adversary, nuisance) of the DA-cAE run at one point and seed."""
    return probe_stack(seed)[0][(lambda_a, lambda_n)]


# -- 1: gradients -----------------------------------------------------------------


def check_standalone(dims, loss_kind, seed):
    rng = make_rng(seed, 11)
    net = build_mlp(dims, rng)
    xb = rng.standard_normal((8, dims[0]))
    if loss_kind == "mse":
        target = rng.standard_normal((8, dims[-1]))

        def loss_fn(n):
            return mse_loss(n.forward(xb), target)[0]

        _, grad = mse_loss(net.forward(xb), target)
    else:
        yb = rng.integers(0, dims[-1], size=8)

        def loss_fn(n):
            return softmax_cross_entropy(n.forward(xb), yb)[0]

        _, grad = softmax_cross_entropy(net.forward(xb), yb)
    net.backward(grad)
    report = grad_check(net, loss_fn)
    assert report.passed, (dims, loss_kind, report.max_rel_error, report.worst_param)
    return report.max_rel_error


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0

    # each network shape on its own natural loss (S=6, C=7, d=15, r_n=1/3)
    worst = max(worst, check_standalone((7, 15, 15), "mse", 1))    # encoder
    worst = max(worst, check_standalone((21, 15, 7), "mse", 2))    # decoder
    worst = max(worst, check_standalone((10, 6), "ce", 3))         # adversary
    worst = max(worst, check_standalone((5, 6), "ce", 4))          # nuisance
    worst = max(worst, check_standalone((15, 15, 4), "ce", 5))     # task MLP

    # composite joint loss: every parameter of every group
    config = HyperConfig(lambda_a=0.2, lambda_n=0.05, r_n=1.0 / 3.0,
                         latent_dim=15, variant="DA-cAE")
    params = init_params(7, 6, config, seed=3)
    rng = make_rng(3, 12)
    x = rng.standard_normal((8, 7))
    s = rng.integers(0, 6, size=8)

    z = params.encoder.forward(x)
    x_hat = params.decoder.forward(decoder_input(z, s, 6, True))
    _, gx = mse_loss(x_hat, x)
    dz = params.decoder.backward(gx)[:, :15].copy()
    _, ga = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
    dz[:, : params.d_a] -= config.lambda_a * params.adversary.backward(ga)
    _, gn = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
    dz[:, params.d_a:] += config.lambda_n * params.nuisance.backward(gn)
    params.encoder.forward(x)
    params.encoder.backward(dz)
    # every network's buffer holds its own gradient; a head's enters the joint loss
    # times its weight
    for head, weight in ((params.adversary, -config.lambda_a), (params.nuisance, config.lambda_n)):
        for g in head.weight_grads + head.bias_grads:
            g *= weight

    def composite(_net):
        return dacae_loss(params, x, s, config)[0]

    for name, net in params.groups().items():
        report = grad_check(net, composite)
        assert report.passed, (name, report.max_rel_error, report.worst_param)
        worst = max(worst, report.max_rel_error)

    elapsed = time.perf_counter() - started
    print(f"criterion 1: max rel error {worst:.3g} (<1e-4), {elapsed:.1f}s (<10s)")
    assert worst < 1e-4
    assert elapsed < 10.0


# -- 2: loss identity --------------------------------------------------------------


def test_criterion_2_loss_identity():
    rng = make_rng(2026)
    worst = 0.0
    for _ in range(100):
        n_channels = int(rng.integers(2, 9))
        n_subjects = int(rng.integers(2, 7))
        config = HyperConfig(
            lambda_a=float(rng.uniform(0.0, 0.6)),
            lambda_n=float(rng.uniform(0.0, 0.6)),
            r_n=float(rng.uniform(0.0, 0.9)),
            latent_dim=int(rng.integers(2, 17)),
            variant="DA-cAE")
        params = init_params(n_channels, n_subjects, config,
                             seed=int(rng.integers(1 << 16)))
        for net in params.groups().values():
            for b in net.biases:
                b[:] = rng.standard_normal(b.shape)
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, n_channels))
        s = rng.integers(0, n_subjects, size=n)

        total, parts = dacae_loss(params, x, s, config)
        recomposed = (parts.recon + config.lambda_n * parts.nui_ce
                      - config.lambda_a * parts.adv_ce)
        worst = max(worst, abs(total - recomposed))

        plain = HyperConfig(lambda_a=0.0, lambda_n=0.0, r_n=config.r_n,
                            latent_dim=config.latent_dim, variant="DA-cAE")
        total0, _ = dacae_loss(params, x, s, plain)
        z = params.encoder.forward(x)
        x_hat = params.decoder.forward(decoder_input(z, s, n_subjects, True))
        worst = max(worst, abs(total0 - mse_loss(x_hat, x)[0]))

    print(f"criterion 2: worst identity error {worst:.3g} (<=1e-12)")
    assert worst <= 1e-12


# -- 3: disentanglement ------------------------------------------------------------


def test_criterion_3_synthetic_disentanglement():
    probes = [probe_run(0.1, 0.01, seed) for seed in range(5)]
    adv = float(np.mean([p[0] for p in probes]))
    nui = float(np.mean([p[1] for p in probes]))
    # the stacks' own recorded time, so a cache that criterion 4 filled first still counts
    elapsed = sum(probe_stack(seed)[1] for seed in range(5))
    chance = 1.0 / 6.0
    print(f"criterion 3: adversary {adv:.3f} (<= {chance + 0.10:.3f}), "
          f"nuisance {nui:.3f} (>= {chance + 0.20:.3f}), {elapsed:.0f}s (<300s)")
    assert adv <= chance + 0.10
    assert nui >= chance + 0.20
    assert elapsed < 300.0


# -- 4: monotone lambda trends -------------------------------------------------------


def test_criterion_4_monotone_lambda_trends():
    adv_means = []
    for lambda_a in (0.0, 0.01, 0.1, 0.5):
        runs = [probe_run(lambda_a, 0.005, seed)[0] for seed in range(5)]
        adv_means.append(float(np.mean(runs)))
    nui_means = []
    for lambda_n in (0.0, 0.005, 0.01, 0.2):
        runs = [probe_run(0.0, lambda_n, seed)[1] for seed in range(5)]
        nui_means.append(float(np.mean(runs)))
    print(f"criterion 4: adversary means {[round(m, 3) for m in adv_means]} "
          f"(non-increasing), nuisance means {[round(m, 3) for m in nui_means]} "
          f"(non-decreasing)")
    assert all(b <= a for a, b in zip(adv_means, adv_means[1:])), adv_means
    assert all(b >= a for a, b in zip(nui_means, nui_means[1:])), nui_means


# -- 5: variant ordering -------------------------------------------------------------


def test_criterion_5_variant_ordering(tmp_path):
    variants = ("AE", "A-cAE", "D-cAE", "DA-cAE")
    sums = {v: [] for v in variants}
    for seed in range(5):
        config = ExperimentConfig(
            synthetic=standard_spec(seed, samples_per_cell=60, trials_per_cell=2,
                                    beta=2.0),
            variants=variants, classifiers=("mlp",),
            lambda_a=0.1, lambda_n=0.01, latent_dim=4,
            learning_rate=0.15, batch_size=16, epochs=30,
            seed=seed, jobs=1, out=str(tmp_path / f"seed{seed}"))
        _, summary = run_loso(config)
        for row in summary:
            sums[row.variant].append(row.mean)
    means = {v: float(np.mean(accs)) for v, accs in sums.items()}
    gain = means["DA-cAE"] - means["AE"]
    vs_single = means["DA-cAE"] - max(means["A-cAE"], means["D-cAE"])
    print(f"criterion 5: {({v: round(m, 4) for v, m in means.items()})}, "
          f"DA-cAE vs AE +{gain:.4f} (>= 0.03), "
          f"vs best single {vs_single:+.4f} (>= -0.01)")
    assert vs_single >= -0.01
    assert gain >= 0.03

    if REAL_DATA is None:
        print("criterion 5: real-data half skipped (DACAE_REAL_DATA not set)")
        return
    for kind, (lambda_a, lambda_n, want) in REAL_REFERENCE.items():
        config = ExperimentConfig(
            dataset=REAL_DATA, variants=("DA-cAE",), classifiers=(kind,),
            lambda_a=lambda_a, lambda_n=lambda_n, latent_dim=15, epochs=50,
            seed=0, jobs=1, out=str(tmp_path / f"real_{kind}"))
        _, summary = run_loso(config)
        got = summary[0].mean
        print(f"criterion 5: real {kind} {got:.3f} vs {want:.3f} (+-0.04)")
        assert abs(got - want) <= 0.04, (kind, got, want)


# -- 6: convergence -----------------------------------------------------------------


def convergence_clauses(dataset, seed, lambda_a, lambda_n, sgd):
    train_ids, _ = holdout_split(dataset, 0.1, seed)
    dataset = normalize(dataset, train_ids)
    config = HyperConfig(lambda_a=lambda_a, lambda_n=lambda_n, r_n=1.0 / 3.0,
                         latent_dim=15, variant="DA-cAE", sgd=sgd)
    _, log = fit_feature_extractor(dataset.subset(train_ids), config)
    totals = [r.total_loss for r in log.rows]
    ratio = float(abs(totals[9] - totals[4]) / abs(totals[4]))
    return ratio, log.rows[0].nuisance_ce, log.rows[-1].nuisance_ce


def seed_convergence(seed):
    """Criterion 6's clauses on seed's own dataset; runs in a pool worker."""
    sgd = SgdConfig(learning_rate=0.15, batch_size=16, epochs=50, seed=seed)
    return convergence_clauses(generate_synthetic(standard_spec(seed))[0], seed, 0.5, 0.01, sgd)


def test_criterion_6_convergence():
    # each seed draws its own dataset and trains alone, so the five run two at a time;
    # spawned workers import this module afresh rather than fork a threaded process
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        clauses = list(pool.map(seed_convergence, range(5)))
    ratios = []
    for seed, (ratio, first_ce, last_ce) in enumerate(clauses):
        ratios.append(ratio)
        assert last_ce <= first_ce, (seed, first_ce, last_ce)
    print(f"criterion 6: plateau ratios {[round(r, 4) for r in ratios]} (< 0.1), "
          f"nuisance CE declined on all seeds")
    assert all(r < 0.1 for r in ratios), ratios

    if REAL_DATA is None:
        print("criterion 6: real-data half skipped (DACAE_REAL_DATA not set)")
        return
    sgd = SgdConfig(epochs=50, seed=0)
    ratio, first_ce, last_ce = convergence_clauses(
        load_csv(REAL_DATA), 0, 0.01, 0.005, sgd)
    print(f"criterion 6: real plateau ratio {ratio:.4f} (< 0.1), "
          f"nuisance CE {first_ce:.3f} -> {last_ce:.3f}")
    assert ratio < 0.1
    assert last_ce <= first_ce


# -- 7: pipeline soundness ------------------------------------------------------------


def relaxation_heavy_trial(subject, trial, label):
    times = np.arange(4, dtype=float)
    rng = make_rng(subject, trial, 13)
    return RawTrial(subject, trial, label,
                    {"hr": (times, rng.standard_normal(4)),
                     "eda": (times, rng.standard_normal(4))})


def test_criterion_7_pipeline_soundness(tmp_path):
    # LOSO partitions: disjoint cover, isolated test subject, whole trials
    for seed, trials_per_cell, val_fraction in ((0, 2, 0.1), (1, 3, 0.2), (2, 1, 0.1)):
        ds, _, _ = generate_synthetic(SyntheticSpec(
            n_subjects=5, n_classes=3, n_channels=4, samples_per_cell=10,
            trials_per_cell=trials_per_cell, seed=seed))
        plans = loso_splits(ds, val_fraction, seed=seed)
        assert len(plans) == 5
        for plan in plans:
            joined = np.concatenate([plan.train_ids, plan.val_ids, plan.test_ids])
            assert np.array_equal(np.sort(joined), np.arange(ds.x.shape[0]))
            assert set(ds.s[plan.test_ids]) == {plan.test_subject}
            assert plan.test_subject not in set(ds.s[plan.train_ids])
            assert plan.test_subject not in set(ds.s[plan.val_ids])
            owner = {}
            for part, ids in (("train", plan.train_ids), ("val", plan.val_ids),
                              ("test", plan.test_ids)):
                for trial in np.unique(ds.trial[ids]):
                    assert owner.setdefault(int(trial), part) == part

    # ingestion drops the surplus relaxation trials: 7 recorded -> 4 kept
    raw = []
    for subject in range(4):
        for k in range(4):
            raw.append(relaxation_heavy_trial(subject, k, label=0))
        for k, label in enumerate((1, 2, 3), start=4):
            raw.append(relaxation_heavy_trial(subject, k, label))
    ingested = ingest(raw, ["hr", "eda"])
    for subject in range(4):
        labels = sorted(lbl for _, subj, lbl in trial_table(ingested)
                        if subj == subject)
        assert labels == [0, 1, 2, 3]

    # byte-identical result trees for any worker count
    base = dict(
        synthetic=SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4,
                                samples_per_cell=12, trials_per_cell=2, seed=5),
        variants=("DA-cAE",), classifiers=("lda",), lambda_a=0.1, lambda_n=0.01,
        latent_dim=6, learning_rate=0.05, batch_size=16, epochs=2, seed=9)
    run_loso(ExperimentConfig(**base, jobs=1, out=str(tmp_path / "w1")))
    run_loso(ExperimentConfig(**base, jobs=3, out=str(tmp_path / "w3")))
    rel1 = sorted(p.relative_to(tmp_path / "w1")
                  for p in (tmp_path / "w1").rglob("*") if p.is_file())
    rel3 = sorted(p.relative_to(tmp_path / "w3")
                  for p in (tmp_path / "w3").rglob("*") if p.is_file())
    assert rel1 == rel3 and rel1
    for rel in rel1:
        assert filecmp.cmp(tmp_path / "w1" / rel, tmp_path / "w3" / rel,
                           shallow=False), rel
    print(f"criterion 7: partitions sound, 4 trials kept per subject, "
          f"{len(rel1)} result files byte-identical across worker counts")


# -- 8: classifier oracles ------------------------------------------------------------


def brute_force_knn(train_z, train_y, query, k):
    d2 = [float(((query - p) ** 2).sum()) for p in train_z]
    order = sorted(range(len(train_z)), key=lambda i: (d2[i], i))[:k]
    votes = {}
    for i in order:
        votes[int(train_y[i])] = votes.get(int(train_y[i]), 0) + 1
    top = max(votes.values())
    return min(label for label, count in votes.items() if count == top)


def brute_force_split(z, label_pos, n_labels, min_leaf):
    n = z.shape[0]
    best = None
    for feature in range(z.shape[1]):
        levels = sorted(set(z[:, feature]))
        for threshold in [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]:
            mask = z[:, feature] <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            left = np.bincount(label_pos[mask], minlength=n_labels).astype(float)
            right = np.bincount(label_pos[~mask], minlength=n_labels).astype(float)
            score = (n_left * gini_impurity(left)
                     + (n - n_left) * gini_impurity(right)) / n
            if best is None or score < best[2] - 1e-15:
                best = (feature, threshold, score)
    return best


def test_criterion_8_classifier_oracles():
    for seed in range(30):
        rng = make_rng(seed, 181)
        n = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 3))
        z = np.round(rng.standard_normal((n, dim)), 1)  # coarse grid forces ties
        y = rng.integers(0, 3, size=n)

        k = int(rng.integers(1, n + 1))
        clf = KnnClassifier(z, y, k=k)
        queries = np.round(rng.standard_normal((8, dim)), 1)
        want = [brute_force_knn(z, y, q, k) for q in queries]
        assert list(clf.predict(queries)) == want, seed

        min_leaf = int(rng.integers(1, 4))
        label_pos = rng.integers(0, 2, size=n)
        got = best_split(z, label_pos, 2, min_leaf)
        expect = brute_force_split(z, label_pos, 2, min_leaf)
        if expect is None:
            assert got is None, seed
        else:
            assert got is not None, seed
            assert got[0] == expect[0], seed
            assert got[1] == pytest.approx(expect[1]), seed
            assert got[2] == pytest.approx(expect[2]), seed

    benchmark = {}
    for kind in KINDS:
        scores = []
        for seed in range(5):
            rng = make_rng(seed, 182)
            a = rng.standard_normal((40, 3))
            b = rng.standard_normal((40, 3))
            b[:, 0] += 6.0
            z = np.vstack([a, b])
            y = np.array([0] * 40 + [1] * 40)
            perm = rng.permutation(80)
            clf = fit(kind, z[perm], y[perm], seed=seed)
            scores.append(accuracy(clf, z, y))
        benchmark[kind] = float(np.mean(scores))
    print(f"criterion 8: 30 oracle instances exact, two-blob means "
          f"{({k: round(v, 3) for k, v in benchmark.items()})} (>= 0.95)")
    assert all(score >= 0.95 for score in benchmark.values()), benchmark
