"""Training-loop tests: warm-up equivalence, determinism, label freshness,
evaluation metrics, and the teacher pathway."""

import math

import numpy as np
import pytest

import labo.train as train_mod
from labo import numerics
from labo.data import gaussian_blobs
from labo.model import MlpModel, SgdOptimizer
from labo.objectives import batch_objective
from labo.smoothing import SmoothingConfig
from labo.train import (
    ConfidenceHistogram,
    EpochReport,
    TrainConfig,
    evaluate,
    run_training,
    train_teacher,
    write_reports_csv,
)

LABO_SMOOTHING = SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=1.25, alpha=0.1)


@pytest.fixture(scope="module")
def small_blobs():
    return gaussian_blobs(3, 200, dim=2, std=1.0, seed=7)


def make_cfg(**kwargs) -> TrainConfig:
    base = dict(
        steps=120,
        warmup=0,
        batch_size=32,
        lr=0.1,
        seed=1,
        mode="ls",
        smoothing=LABO_SMOOTHING,
        eval_every=40,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"warmup": 200, "steps": 100},
            {"batch_size": 0},
            {"steps": 0},
            {"eval_every": 0},
            {"beta_cp": -1.0},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            make_cfg(**{"steps": 100, **kwargs})


class TestWarmupEquivalence:
    def test_warmup_prefix_matches_ls_run_bitwise(self, small_blobs):
        """The first T_w steps of a two-stage run equal a uniform-LS run."""
        t_w = 60
        snapshots = {}

        def capture(step, model):
            if step == t_w:
                snapshots["labo"] = model.theta.copy()

        labo_model = MlpModel([2, 16, 3], seed=5)
        run_training(labo_model, small_blobs, make_cfg(mode="labo", steps=120, warmup=t_w, seed=5), step_callback=capture)

        ls_model = MlpModel([2, 16, 3], seed=5)
        run_training(ls_model, small_blobs, make_cfg(mode="ls", steps=t_w, seed=5))
        np.testing.assert_array_equal(snapshots["labo"], ls_model.theta)

    def test_full_warmup_run_equals_ls_reports(self, small_blobs):
        """warmup == steps turns the run into a uniform-LS run outright."""
        labo_model = MlpModel([2, 16, 3], seed=3)
        _, labo_reports = run_training(
            labo_model, small_blobs, make_cfg(mode="labo", steps=80, warmup=80, seed=3)
        )
        ls_model = MlpModel([2, 16, 3], seed=3)
        _, ls_reports = run_training(ls_model, small_blobs, make_cfg(mode="ls", steps=80, seed=3))
        assert labo_reports == ls_reports

    @pytest.mark.parametrize("mode", ["none", "cp", "kd"])
    def test_warmup_applies_only_in_labo_mode(self, small_blobs, mode):
        """Baselines train on their own labels from step 0 whatever warmup says."""
        teacher = MlpModel([2, 64, 3], seed=99)
        params = []
        for warmup in (0, 60):
            model = MlpModel([2, 16, 3], seed=3)
            run_training(model, small_blobs, make_cfg(mode=mode, steps=80, warmup=warmup, seed=3), teacher=teacher)
            params.append(model.theta.copy())
        np.testing.assert_array_equal(params[0], params[1])


class TestReportSteps:
    def test_last_step_is_reported_when_eval_every_does_not_divide_steps(self, small_blobs):
        """Reports come at every multiple of eval_every and at the last step; the best model is
        the first with the highest validation accuracy over all of those evaluations."""
        snapshots = {}
        best, reports = run_training(MlpModel([2, 16, 3], seed=1), small_blobs, make_cfg(steps=130, eval_every=40),
                                     step_callback=lambda t, m: snapshots.__setitem__(t, m.copy()))
        assert [r.step for r in reports] == [40, 80, 120, 130]
        accuracies = [evaluate(snapshots[r.step], small_blobs).accuracy for r in reports]
        assert accuracies == [r.val_acc for r in reports]
        assert (best.theta == snapshots[reports[int(np.argmax(accuracies))].step].theta).all()


class TestDeterminismAndDetachment:
    def test_identical_configs_give_identical_runs(self, small_blobs):
        reports, params = [], []
        for _ in range(2):
            model = MlpModel([2, 16, 3], seed=2)
            _, r = run_training(model, small_blobs, make_cfg(mode="labo", warmup=30, seed=2))
            reports.append(r)
            params.append(model.theta.copy())
        assert reports[0] == reports[1]
        np.testing.assert_array_equal(params[0], params[1])

    def test_kd_with_zero_alpha_reproduces_plain_training(self, small_blobs):
        """alpha=0 collapses the teacher label to one-hot, bit for bit."""
        teacher = MlpModel([2, 64, 3], seed=99)

        kd_model = MlpModel([2, 16, 3], seed=4)
        kd_cfg = make_cfg(mode="kd", seed=4, smoothing=SmoothingConfig(alpha=0.0))
        run_training(kd_model, small_blobs, kd_cfg, teacher=teacher)

        none_model = MlpModel([2, 16, 3], seed=4)
        run_training(none_model, small_blobs, make_cfg(mode="none", seed=4))
        np.testing.assert_array_equal(kd_model.theta, none_model.theta)

    def test_none_mode_reports_zero_alpha(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=1)
        _, reports = run_training(model, small_blobs, make_cfg(mode="none", seed=1))
        assert all(r.mean_alpha == 0.0 for r in reports)

    def test_kd_mode_requires_teacher(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=1)
        with pytest.raises(ValueError, match="teacher"):
            run_training(model, small_blobs, make_cfg(mode="kd"))

    def test_model_of_another_input_width_fails_before_any_step(self, small_blobs):
        """The step skips `forward`'s input check, so building it says what `forward` would."""
        steps = []
        with pytest.raises(ValueError, match=r"^expected input dim 3, got shape \(32, 2\)$"):
            run_training(MlpModel([3, 16, 3], seed=1), small_blobs, make_cfg(mode="none"),
                         step_callback=lambda t, m: steps.append(t))
        assert steps == []


def public_api_run(model, data, cfg, teacher=None):
    """`run_training`'s loop written from the public per-call API: `MlpModel.forward`,
    `batch_objective`, `MlpModel.backward`, `SgdOptimizer.step` and a finite check of theta.
    The kd rows come from the teacher table, looked up by position in the sorted train split."""
    rng = np.random.default_rng(cfg.seed)
    optimizer = SgdOptimizer(model, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    warmup = cfg.warmup if cfg.mode == "labo" else 0
    train_idx, n = data.splits["train"], cfg.batch_size
    if cfg.mode == "kd":
        table = train_mod._teacher_log_probs(teacher, data, train_idx, n)
    order, pos = rng.permutation(train_idx), 0
    reports, window, best_acc, best = [], [], -1.0, None
    for t in range(cfg.steps):
        if pos + n > order.size:
            order, pos = rng.permutation(train_idx), 0
        batch, pos = order[pos : pos + n], pos + n
        mode, smoothing = ("ls", SmoothingConfig(alpha=0.1)) if t < warmup else (cfg.mode, cfg.smoothing)
        Z = model.forward(data.features[batch])
        teacher_logP = table[np.searchsorted(train_idx, batch)] if mode == "kd" else None
        _, alphas, losses, grad = batch_objective(data.labels[batch], Z, mode, smoothing, cfg.beta_cp, teacher_logP)
        window.append(float(losses.mean()))
        optimizer.step(model, model.backward(grad))
        assert np.isfinite(window[-1]) and np.isfinite(model.theta).all()
        if (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.steps:
            ev = evaluate(model, data, split="val")
            reports.append(EpochReport(t + 1, float(np.mean(window)), ev.accuracy, ev.mean_confidence,
                                       ev.mean_entropy, float(alphas.mean())))
            window = []
            if ev.accuracy > best_acc:
                best_acc, best = ev.accuracy, model.copy()
    return best, reports


class TestStepAgainstThePublicApi:
    """`run_training`'s step works in arrays it allocates once; the per-call API allocates afresh."""

    CASES = {
        "none": dict(mode="none"),
        "ls": dict(mode="ls"),
        "cp": dict(mode="cp", beta_cp=0.3),
        "kd": dict(mode="kd", smoothing=SmoothingConfig(alpha=0.4)),
        "labo-adaptive": dict(mode="labo", warmup=30),
        "labo-fixed": dict(mode="labo", warmup=30, smoothing=SmoothingConfig(alpha=0.3, tau=2.0)),
    }

    @pytest.fixture(scope="class")
    def six_classes(self):
        return gaussian_blobs(6, 60, dim=4, std=1.5, seed=3)

    @pytest.fixture(scope="class")
    def eight_classes(self):
        return gaussian_blobs(8, 40, dim=3, std=1.0, seed=11)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("sizes", [[2, 16, 3], [4, 12, 8, 6], [3, 12, 8]], ids=["blobs", "two-hidden-k6", "k8"])
    def test_run_equals_the_public_api_loop(self, small_blobs, six_classes, eight_classes, case, sizes):
        """K = 3 and 6 run the objective class-major, K = 8 row-major (`_objective_buffers`)."""
        data = {3: small_blobs, 6: six_classes, 8: eight_classes}[sizes[-1]]
        cfg = make_cfg(steps=120, seed=2, **self.CASES[case])
        teacher = MlpModel([data.dim, 32, data.num_classes], seed=99)
        model, reference = MlpModel(sizes, seed=5), MlpModel(sizes, seed=5)
        best, reports = run_training(model, data, cfg, teacher=teacher)
        ref_best, ref_reports = public_api_run(reference, data, cfg, teacher=teacher)
        assert (best.theta == ref_best.theta).all()
        assert (model.theta == reference.theta).all()
        assert reports == ref_reports and len(reports) == 3

    def test_public_calls_return_fresh_arrays(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=5)
        X, ks = small_blobs.split_arrays("train")
        Z = model.forward(X[:32])
        outputs = [batch_objective(ks[:32], Z, "labo", LABO_SMOOTHING) for _ in range(2)]
        for first, second in zip(*outputs):
            assert not np.shares_memory(first, second)
        grads = [model.backward(outputs[0][3]) for _ in range(2)]
        assert not np.shares_memory(*grads) and (grads[0] == grads[1]).all()


def record_forward_inputs(model) -> list:
    """Record the input of every `model.forward` call; returns the list."""
    inputs, forward = [], model.forward

    def spy(x):
        inputs.append(x)
        return forward(x)

    model.forward = spy
    return inputs


class TestTeacherTable:
    """The frozen kd teacher's log-probabilities come from one pass per run."""

    @pytest.fixture(scope="class")
    def uneven_blobs(self):
        data = gaussian_blobs(3, 210, dim=2, std=1.0, seed=7)
        assert data.splits["train"].size % 32 != 0  # so the last chunk overlaps the one before
        return data

    def test_batch_rows_equal_a_per_batch_teacher_pass(self, uneven_blobs, monkeypatch):
        """Over 50 seeded batches, the rows a step hands to the objective equal
        log_softmax_rows(teacher.forward(X)) of that step's batch, bit for bit.
        A step writes both into arrays it reuses, so the spies keep copies."""
        teacher = MlpModel([2, 64, 3], seed=99)
        student = MlpModel([2, 16, 3], seed=4)
        student_inputs, forward = [], student._forward

        def forward_spy(arrays, X):
            student_inputs.append(X.copy())
            return forward(arrays, X)

        student._forward = forward_spy
        seen, objective = [], train_mod._batch_objective_into

        def spy(ks, Z, mode, smoothing, beta_cp, teacher_logP, buffers):
            seen.append((student_inputs[-1], teacher_logP.copy()))
            return objective(ks, Z, mode, smoothing, beta_cp, teacher_logP, buffers)

        monkeypatch.setattr(train_mod, "_batch_objective_into", spy)
        run_training(student, uneven_blobs, make_cfg(mode="kd", steps=50, eval_every=50, seed=4), teacher=teacher)

        assert len(seen) == 50
        train_idx = uneven_blobs.splits["train"]
        last_only = {x.tobytes() for x in uneven_blobs.features[train_idx[-(train_idx.size % 32):]]}
        assert any(x.tobytes() in last_only for X, _ in seen for x in X)  # rows only the overlapping chunk holds
        for X, teacher_logP in seen:
            np.testing.assert_array_equal(teacher_logP, numerics.log_softmax_rows(teacher.forward(X)))

    @pytest.mark.parametrize("steps", [10, 200])
    def test_kd_runs_one_teacher_pass_per_chunk(self, uneven_blobs, steps):
        teacher = MlpModel([2, 64, 3], seed=99)
        calls = record_forward_inputs(teacher)
        run_training(MlpModel([2, 16, 3], seed=4), uneven_blobs, make_cfg(mode="kd", steps=steps), teacher=teacher)
        assert len(calls) == math.ceil(uneven_blobs.splits["train"].size / 32)
        assert all(x.shape == (32, 2) for x in calls)

    @pytest.mark.parametrize("mode", ["none", "ls", "cp", "labo"])
    def test_other_modes_never_call_the_teacher(self, uneven_blobs, mode):
        teacher = MlpModel([2, 64, 3], seed=99)
        calls = record_forward_inputs(teacher)
        run_training(MlpModel([2, 16, 3], seed=4), uneven_blobs, make_cfg(mode=mode, warmup=20), teacher=teacher)
        assert calls == []

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([2, 8, 4], "teacher expects 2 features / 4 classes, dataset has 2 / 3"),
            ([3, 8, 3], "teacher expects 3 features / 3 classes, dataset has 2 / 3"),
        ],
        ids=["classes", "features"],
    )
    def test_mismatched_teacher_fails_before_any_step(self, small_blobs, sizes, message):
        teacher = MlpModel(sizes, seed=0)
        calls = record_forward_inputs(teacher)
        steps = []
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_training(MlpModel([2, 16, 3], seed=1), small_blobs, make_cfg(mode="kd"), teacher=teacher,
                         step_callback=lambda t, m: steps.append(t))
        assert steps == [] and calls == []


class TestAdaptiveAlphaTelemetry:
    def test_reported_alpha_within_bounds_after_warmup(self, small_blobs):
        rho = 0.5
        cfg = make_cfg(
            mode="labo",
            warmup=40,
            steps=160,
            smoothing=SmoothingConfig(alpha_rule="adaptive", rho=rho, tau=1.25),
        )
        model = MlpModel([2, 16, 3], seed=6)
        _, reports = run_training(model, small_blobs, cfg)
        for r in reports:
            if r.step > cfg.warmup:
                assert 1.0 - rho - 1e-12 <= r.mean_alpha <= 1.0 + 1e-12
            else:
                assert r.mean_alpha == pytest.approx(0.1, abs=1e-12)


class TestEvaluate:
    def test_zero_weight_model_is_uniform(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=0, init=False)
        ev = evaluate(model, small_blobs, split="test")
        assert ev.mean_confidence == pytest.approx(1 / 3, abs=1e-12)
        assert ev.mean_entropy == pytest.approx(np.log(3), abs=1e-12)
        # all mass in the bin containing 1/3: [0.30, 0.35)
        assert ev.histogram.counts[6] == ev.histogram.counts.sum()

    def test_saturated_model_has_exact_confidence_and_entropy(self, small_blobs):
        """A logit gap of 1000 underflows the other classes to probability 0."""
        model = MlpModel([2, 3], seed=0, init=False)
        model.biases[0][...] = [1000.0, 0.0, 0.0]
        ev = evaluate(model, small_blobs, split="test")
        assert ev.mean_confidence == 1.0
        assert ev.mean_entropy == 0.0

    def test_histogram_counts_sum_to_split_size(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=1)
        ev = evaluate(model, small_blobs, split="val")
        assert ev.histogram.counts.sum() == small_blobs.splits["val"].size

    def test_separable_data_reaches_perfect_accuracy(self):
        data = gaussian_blobs(3, 100, dim=2, std=0.05, seed=11)
        model = MlpModel([2, 16, 3], seed=1)
        best, _ = run_training(model, data, make_cfg(mode="none", steps=200, batch_size=16))
        assert evaluate(best, data, split="test").accuracy == 1.0

    def test_empty_split_rejected(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=1)
        data = gaussian_blobs(3, 20, dim=2, std=1.0, seed=0)
        data.splits["val"] = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, data, split="val")


class TestLossBehaviour:
    def test_loss_decreases_on_separable_data(self):
        data = gaussian_blobs(3, 100, dim=2, std=0.2, seed=13)
        model = MlpModel([2, 16, 3], seed=1)
        _, reports = run_training(
            model, data, make_cfg(mode="none", steps=200, batch_size=16, eval_every=10)
        )
        assert reports[-1].train_loss < reports[0].train_loss

    def test_overflow_aborts_with_step_index(self, small_blobs):
        model = MlpModel([2, 16, 3], seed=1)
        with pytest.raises(FloatingPointError, match="step"):
            run_training(model, small_blobs, make_cfg(mode="none", lr=1e12, steps=50))

    @pytest.mark.parametrize("mode", ["none", "ls", "cp", "labo"])
    def test_all_modes_run_and_learn(self, small_blobs, mode):
        model = MlpModel([2, 16, 3], seed=8)
        best, reports = run_training(model, small_blobs, make_cfg(mode=mode, steps=300, warmup=50 if mode == "labo" else 0))
        assert evaluate(best, small_blobs, split="test").accuracy > 0.8


class TestConfidenceShift:
    def test_smoothed_training_moves_histogram_mode_down(self):
        """One-hot training concentrates confidence in the top bin; the
        two-stage run's histogram peaks strictly lower."""
        data = gaussian_blobs(3, 2000, dim=2, std=1.0, seed=7)
        mode_bins = {}
        for mode, warmup in [("none", 0), ("labo", 500)]:
            cfg = make_cfg(mode=mode, warmup=warmup, steps=4000, batch_size=128, seed=1, eval_every=200)
            model = MlpModel([2, 32, 3], seed=1)
            best, _ = run_training(model, data, cfg)
            ev = evaluate(best, data, split="test")
            mode_bins[mode] = int(np.argmax(ev.histogram.counts))
        assert mode_bins["labo"] < mode_bins["none"]


class TestTeacher:
    def test_teacher_beats_plain_student(self):
        """At desk scale the wider smoothed teacher should not lose to a
        plain-CE student, averaged over 5 seeds."""
        data = gaussian_blobs(3, 2000, dim=2, std=1.0, seed=7)
        t_accs, s_accs = [], []
        for seed in range(1, 6):
            base = make_cfg(seed=seed, steps=2000, batch_size=128, eval_every=200)
            teacher, _ = train_teacher(data, base)
            t_accs.append(evaluate(teacher, data, split="test").accuracy)
            student = MlpModel([2, 32, 3], seed=seed)
            best, _ = run_training(student, data, make_cfg(mode="none", seed=seed, steps=2000, batch_size=128, eval_every=200))
            s_accs.append(evaluate(best, data, split="test").accuracy)
        assert np.mean(t_accs) >= np.mean(s_accs)

    def test_checkpoint_written_and_loadable(self, small_blobs, tmp_path):
        from labo.model import load_checkpoint

        path = tmp_path / "teacher.json"
        teacher, _ = train_teacher(small_blobs, make_cfg(steps=50), checkpoint_path=str(path))
        loaded = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded.theta, teacher.theta)
        assert loaded.layer_sizes == [2, 64, 3]


class TestReportsCsv:
    def test_header_and_rows(self, small_blobs, tmp_path):
        model = MlpModel([2, 16, 3], seed=1)
        _, reports = run_training(model, small_blobs, make_cfg(steps=80, eval_every=40))
        path = tmp_path / "reports.csv"
        write_reports_csv(reports, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,train_loss,val_acc,mean_confidence,mean_entropy,mean_alpha"
        assert len(lines) == 1 + len(reports)
        first = lines[1].split(",")
        assert int(first[0]) == reports[0].step
        assert float(first[1]) == reports[0].train_loss


class TestConfidenceHistogram:
    def test_bin_structure(self):
        hist = ConfidenceHistogram.from_confidences(np.array([0.0, 0.5, 0.999, 1.0]))
        assert hist.edges.shape == (21,) and hist.counts.shape == (20,)
        assert hist.counts.sum() == 4
        assert hist.counts[-1] == 2  # 0.999 and 1.0 share the last bin

    def test_dict_form(self):
        hist = ConfidenceHistogram.from_confidences(np.array([0.25]))
        d = hist.to_dict()
        assert len(d["edges"]) == 21 and len(d["counts"]) == 20
        assert sum(d["counts"]) == 1
