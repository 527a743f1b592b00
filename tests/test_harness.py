import hashlib
import json

import numpy as np
import pytest
from conftest import kernels
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlbench import harness, trainer
from dmlbench.errors import (
    ConfigError,
    DatasetParseError,
    LabelError,
    StratificationError,
    TrainingDivergedError,
)
from dmlbench.harness import (
    BETA_GRID,
    Dataset,
    FoldPlan,
    _largest_remainder_quotas,
    canonical_json,
    desk_grid,
    fold_plans_to_json,
    format_cell,
    full_grid,
    load_dataset,
    make_fold_plans,
    render_csv,
    render_table,
    result_to_report,
    run_grid,
    save_dataset,
    synth_dataset,
)
from dmlbench.losses import PROXY_VARIANTS, LossConfig, LossOutput
from dmlbench.numeric import derive_seed

VARIANTS6 = ("triplet", "supcon", "npairs", "proxynca", "softtriple", "proxyanchor")
# sha256 of canonical_json({"full": full_grid(v), "desk": desk_grid(v)}): a
# cell's seed comes from its point's index, so reordering the points (or the
# axes they are built from) changes every grid result although the counts hold
GRID_PINNED = {
    "triplet": "bd23f8df667baee1bbe06fb1fcf1a5877e55475f12ee72ce93ae585913d00e6e",
    "npairs": "11d88c9876d134f1a630e3e2aa8cecccd06324f7a963fe7058d2ffda967fbd24",
    "supcon": "5887c3a9918894973b3b3dfeee04a9c4acb5dbc860e925dba62c4184ba29ffc8",
    "proxynca": "6153959087d461518fa1ba2b5f6ba489991519610856a74928dc6a8fc45130bd",
    "softtriple": "c04fdbaf45990377c5245842f88bf3db1e52134df8cd51fdbfe3d3fd50758263",
    "proxyanchor": "6acc74eb9989f00b3ae0e5e22faf9541a5da3358ac299d7cec98ab1f3438d767",
}


def small_overrides(**kw):
    out = dict(epochs=2, batch_size=16, vocab_size=128, embed_dim=8, out_dim=4)
    out.update(kw)
    return out


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds = Dataset(["a b", "c d", "e"], np.array([0, 1, 0]), ["spam", "ham"])
        path = tmp_path / "data.tsv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.texts == ds.texts
        assert np.array_equal(back.labels, ds.labels)
        assert back.label_names == ds.label_names

    def test_labels_dense_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("zebra\tx\napple\ty\nzebra\tz\n", encoding="utf-8")
        ds = load_dataset(path)
        assert ds.label_names == ["zebra", "apple"]
        assert ds.labels.tolist() == [0, 1, 0]

    def test_text_may_contain_tabs(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("a\tleft\tright\nb\tplain\n", encoding="utf-8")
        ds = load_dataset(path)
        assert ds.texts[0] == "left\tright"

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("a\tx\n\nb\ty\n", 2),  # empty line
            ("a\tx\nno separator\n", 2),  # missing tab
            ("\tx\n", 1),  # empty label
        ]
        for content, lineno in cases:
            path = tmp_path / "bad.tsv"
            path.write_text(content, encoding="utf-8")
            with pytest.raises(DatasetParseError) as err:
                load_dataset(path)
            assert err.value.line_number == lineno
            assert f"line {lineno}:" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("a\tx\na\ty\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_dataset(path)

    def test_misaligned_dataset_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(["a"], np.array([0, 1]), ["x", "y"])


class TestSynth:
    def test_deterministic(self):
        a = synth_dataset(3, 30, seed=5)
        b = synth_dataset(3, 30, seed=5)
        c = synth_dataset(3, 30, seed=6)
        assert a.texts == b.texts
        assert a.texts != c.texts

    def test_balanced_classes(self):
        ds = synth_dataset(3, 31, seed=1)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 31

    def test_noise_zero_is_separable(self):
        ds = synth_dataset(2, 20, noise=0.0, seed=2)
        for text, label in zip(ds.texts, ds.labels):
            assert all(w.startswith(f"c{label}t") for w in text.split())

    def test_noise_one_is_all_filler(self):
        ds = synth_dataset(2, 20, noise=1.0, seed=3)
        for text in ds.texts:
            assert all(w.startswith("n") for w in text.split())

    def test_tokens_per_text(self):
        ds = synth_dataset(2, 10, tokens_per_text=5, seed=4)
        assert all(len(t.split()) == 5 for t in ds.texts)

    # sha256 of the corpus, pinned on the generator that drew its uniforms
    # one token at a time: (num_classes, size, signal_tokens, noise, seed,
    # tokens_per_text)
    PINNED = {
        (2, 2000, 8, 0.35, 0, 8): "ed8165d76b7f37d060172ae31e0bf263c9894c5ad5b58c99f9602121799d9fd0",
        (3, 31, 8, 0.35, 1, 8): "b04b4d01faec1175136d319ae512378ec81f6858dc06bdd0e4bfdb2b5c54d355",
        (2, 20, 8, 0.0, 2, 8): "d183d19a11d0d3529d179c97f4aaeca4c08280751ec0cc5f77aa02c3ece6b810",
        (5, 97, 3, 1.0, 7, 5): "0b2224e15e57c711f8ff5cb34a3f7fefe21df6ed5b939c99b2d8db758c37e13c",
        (4, 50, 1, 0.5, 9, 1): "1a1ad0739825886156b09c2002d0804bc2252a510313de1e16f539e73a8d5c5d",
        (7, 123, 12, 0.9, 11, 16): "d4f90311397d06dca739a12964d151c114f6eb3f07b41d76ac2c81bbda6fb49e",
    }

    @pytest.mark.parametrize("key", list(PINNED))
    def test_corpus_pinned(self, key):
        classes, size, signal, noise, seed, tokens = key
        ds = synth_dataset(classes, size, signal, noise, seed, tokens)
        h = hashlib.sha256()
        for text, label in zip(ds.texts, ds.labels):
            h.update(f"{label}\t{text}\n".encode())
        assert h.hexdigest() == self.PINNED[key], kernels()

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_dataset(1, 10)
        with pytest.raises(ConfigError):
            synth_dataset(3, 2)
        with pytest.raises(ConfigError):
            synth_dataset(2, 10, noise=1.5)
        with pytest.raises(ConfigError):
            synth_dataset(2, 10, signal_tokens=0)


def old_largest_remainder_quotas(counts: np.ndarray, shot: int) -> np.ndarray:
    """The quotas as they were computed with a cap at the class sizes and
    an overflow loop, both of which cannot fire for shot < total."""
    total = int(counts.sum())
    if shot >= total:
        return counts.copy()
    raw = shot * counts / total
    quota = np.floor(raw).astype(np.int64)
    remainder = raw - quota
    order = np.lexsort((np.arange(len(counts)), -remainder))
    for idx in order[: shot - int(quota.sum())]:
        quota[idx] += 1
    overflow = int(np.maximum(quota - counts, 0).sum())
    quota = np.minimum(quota, counts)
    while overflow > 0:
        spare = counts - quota
        if spare.max() <= 0:
            break
        quota[int(np.argmax(spare))] += 1
        overflow -= 1
    nonempty = int(np.count_nonzero(counts))
    if shot >= nonempty:
        for c in range(len(counts)):
            if counts[c] > 0 and quota[c] == 0:
                donor = int(np.argmax(quota))
                if quota[donor] <= 1:
                    break
                quota[donor] -= 1
                quota[c] = 1
    return quota


class TestQuotas:
    def test_exact_proportions(self):
        quota = _largest_remainder_quotas(np.array([50, 30, 20]), 10)
        assert quota.tolist() == [5, 3, 2]

    def test_remainder_tie_breaks_low_index(self):
        quota = _largest_remainder_quotas(np.array([3, 3, 3]), 4)
        assert quota.tolist() == [2, 1, 1]

    def test_min_one_when_budget_allows(self):
        quota = _largest_remainder_quotas(np.array([8, 1, 1]), 5)
        assert quota.tolist() == [3, 1, 1]

    def test_shot_at_least_total_takes_everything(self):
        counts = np.array([4, 2])
        assert _largest_remainder_quotas(counts, 6).tolist() == [4, 2]
        assert _largest_remainder_quotas(counts, 99).tolist() == [4, 2]

    def test_sum_matches_shot(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 40, size=rng.integers(2, 6))
            total = int(counts.sum())
            if total == 0:
                continue
            shot = int(rng.integers(1, total + 1))
            quota = _largest_remainder_quotas(counts, shot)
            assert quota.sum() == min(shot, total)
            assert np.all(quota <= counts)
            assert np.all(quota >= 0)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(
            st.one_of(st.integers(0, 50), st.integers(0, 10**6)), min_size=1, max_size=12
        ).filter(lambda c: 0 < sum(c) <= 10**7),
        data=st.data(),
    )
    def test_matches_capped_version(self, counts, data):
        counts = np.array(counts, dtype=np.int64)
        shot = data.draw(st.integers(0, int(counts.sum())), label="shot")
        quota = _largest_remainder_quotas(counts, shot)
        assert np.array_equal(quota, old_largest_remainder_quotas(counts, shot))
        assert np.all(quota <= counts)


class TestFoldPlans:
    def test_split_sizes_and_disjointness(self):
        labels = synth_dataset(2, 100, seed=7).labels
        plans = make_fold_plans(labels, 5, 20, 7)
        assert len(plans) == 5
        for p in plans:
            train, test = set(p.train_indices), set(p.test_indices)
            assert len(test) == 20 and len(train) == 80
            assert not train & test
            assert train | test == set(range(100))
            assert set(p.fewshot_indices) <= train
            assert len(p.fewshot_indices) == 20

    def test_folds_differ(self):
        labels = synth_dataset(2, 50, seed=8).labels
        plans = make_fold_plans(labels, 3, 20, 8)
        assert plans[0].test_indices != plans[1].test_indices
        assert plans[0].seed != plans[1].seed

    def test_fewshot_stratified(self):
        # 2 balanced classes: the 20-shot subset is close to 10/10
        labels = synth_dataset(2, 200, seed=9).labels
        for p in make_fold_plans(labels, 4, 20, 9):
            few = np.bincount(labels[p.fewshot_indices], minlength=2)
            assert abs(int(few[0]) - int(few[1])) <= 2

    def test_full_shot_takes_all_training(self):
        labels = synth_dataset(2, 40, seed=10).labels
        for p in make_fold_plans(labels, 2, "full", 10):
            assert p.fewshot_indices == p.train_indices

    def test_strict_needs_budget_for_every_class(self):
        labels = np.repeat(np.arange(25), 4)
        with pytest.raises(StratificationError):
            make_fold_plans(labels, 1, 20, 11, strict=True)
        plans = make_fold_plans(labels, 1, 20, 11, strict=False)
        assert len(plans[0].fewshot_indices) == 20

    def test_validation(self):
        labels = np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(ConfigError):
            make_fold_plans(labels, 0, 20, 0)
        with pytest.raises(ConfigError):
            make_fold_plans(labels[:4], 1, 20, 0)
        with pytest.raises(ConfigError):
            make_fold_plans(labels, 1, 21, 0)

    def test_json_round_trip(self):
        labels = synth_dataset(2, 60, seed=12).labels
        plans = make_fold_plans(labels, 3, 20, 12)
        obj = json.loads(fold_plans_to_json(plans, 20, 12))
        assert obj["shot"] == 20 and obj["master_seed"] == 12 and obj["num_folds"] == 3
        assert [FoldPlan(**f) for f in obj["folds"]] == plans

    def test_json_byte_identical_across_runs(self):
        labels = synth_dataset(2, 60, seed=13).labels
        a = fold_plans_to_json(make_fold_plans(labels, 4, 20, 13), 20, 13)
        b = fold_plans_to_json(make_fold_plans(labels, 4, 20, 13), 20, 13)
        assert a == b

    def test_full_shot_serializes(self):
        labels = synth_dataset(2, 30, seed=14).labels
        plans = make_fold_plans(labels, 2, "full", 14)
        obj = json.loads(fold_plans_to_json(plans, "full", 14))
        assert obj["shot"] == "full" and obj["master_seed"] == 14
        assert [FoldPlan(**f) for f in obj["folds"]] == plans


class TestCanonicalJson:
    def test_stable_bytes(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})
        assert canonical_json({"x": 1}).endswith("\n")

    def test_refuses_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestGrids:
    def test_full_grid_counts(self):
        expected = {
            "triplet": 25,
            "supcon": 25,
            "npairs": 5,
            "proxynca": 55,
            "softtriple": 4200,
            "proxyanchor": 120,
        }
        for variant, count in expected.items():
            assert len(full_grid(variant)) == count, variant

    def test_desk_grid_counts(self):
        expected = {
            "triplet": 15,
            "supcon": 15,
            "npairs": 5,
            "proxynca": 20,
            "softtriple": 20,
            "proxyanchor": 20,
        }
        for variant, count in expected.items():
            assert len(desk_grid(variant)) == count, variant

    def test_points_distinct_and_tagged(self):
        for variant in VARIANTS6:
            points = full_grid(variant)
            assert all(p["variant"] == variant for p in points)
            seen = {tuple(sorted(p.items())) for p in points}
            assert len(seen) == len(points)

    def test_beta_swept_everywhere(self):
        for variant in VARIANTS6:
            betas = {p["beta"] for p in full_grid(variant)}
            assert betas == set(BETA_GRID), variant

    def test_every_point_builds_a_config(self):
        for variant in VARIANTS6:
            for point in full_grid(variant):
                cfg = LossConfig(**point)
                assert cfg.variant == variant
            for point in desk_grid(variant):
                LossConfig(**point)

    @pytest.mark.parametrize("variant", VARIANTS6)
    def test_point_order_is_pinned(self, variant):
        blob = canonical_json({"full": full_grid(variant), "desk": desk_grid(variant)})
        assert hashlib.sha256(blob.encode()).hexdigest() == GRID_PINNED[variant]

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            full_grid("cce")
        with pytest.raises(ConfigError):
            desk_grid("mystery")


class TestRunGrid:
    def make_inputs(self, seed=20, n=60, folds=3):
        ds = synth_dataset(2, n, noise=0.1, seed=seed)
        plans = make_fold_plans(ds.labels, folds, 20, seed)
        return ds, plans

    def test_non_proxy_end_to_end(self):
        ds, plans = self.make_inputs()
        res = run_grid(
            ds, plans, [{"variant": "supcon", "tau": 0.5, "beta": 0.5}],
            master_seed=20, shot=20, train_overrides=small_overrides(),
        )
        assert res.fold_scores.shape == (1, 3)
        assert np.all(np.isfinite(res.baseline_scores))
        assert res.blended_fold_scores is None
        assert res.best_index == 0
        assert 0.0 <= res.p_value <= 1.0
        assert res.blended_p_value is None

    @pytest.mark.parametrize("variant", VARIANTS6)
    def test_mini_grid_point_scores_every_variant(self, variant):
        # the benchmark's mini-grid point: every other field at its default,
        # so softtriple trains a bank of st_k = 5 proxies per class
        ds, plans = self.make_inputs(21, folds=2)
        res = run_grid(
            ds, plans, [{"variant": variant, "beta": 0.5}],
            master_seed=21, shot=20, train_overrides=small_overrides(),
        )
        assert res.fold_scores.shape == (1, 2)
        assert np.all(np.isfinite(res.fold_scores))
        if variant in PROXY_VARIANTS:
            assert res.blended_fold_scores.shape == (1, 2)
            assert np.all(np.isfinite(res.blended_fold_scores))
            assert 0.0 <= res.blended_p_value <= 1.0
        else:
            assert res.blended_fold_scores is None

    def test_deterministic(self):
        ds, plans = self.make_inputs(22, n=40, folds=2)
        point = [{"variant": "npairs", "beta": 0.5}]
        a = run_grid(ds, plans, point, 22, 20, train_overrides=small_overrides())
        b = run_grid(ds, plans, point, 22, 20, train_overrides=small_overrides())
        assert np.array_equal(a.fold_scores, b.fold_scores)
        assert np.array_equal(a.baseline_scores, b.baseline_scores)

    def test_worker_pool_matches_serial(self):
        # a proxy-free and a proxy grid, each two points on two folds
        ds, plans = self.make_inputs(23, n=40, folds=2)
        for variant in ("supcon", "proxyanchor"):
            points = [{"variant": variant, "beta": b} for b in (0.3, 0.7)]
            serial = run_grid(ds, plans, points, 23, 20, train_overrides=small_overrides())
            pooled = run_grid(
                ds, plans, points, 23, 20, workers=2, train_overrides=small_overrides()
            )
            assert (serial.blended_fold_scores is None) == (variant not in PROXY_VARIANTS)
            for name in ("fold_scores", "blended_fold_scores", "baseline_scores"):
                a, b = getattr(serial, name), getattr(pooled, name)
                assert (a is None and b is None) or np.array_equal(a, b), (variant, name)
            assert serial.best_index == pooled.best_index, variant
            assert serial.p_value == pooled.p_value, variant
            assert serial.blended_p_value == pooled.blended_p_value, variant

    def test_failed_point_excluded_from_best(self, monkeypatch):
        ds, plans = self.make_inputs(24)

        def fake_cell(texts, labels, nc, plan, point, seed, overrides, beta_inf):
            if point["variant"] == "cce":
                return (0.6 + 0.001 * plan.fold_id, float("nan"))
            if point["tau"] == 0.9:
                return (float("nan"), float("nan"))
            return (0.9 + 0.001 * plan.fold_id, float("nan"))

        monkeypatch.setattr("dmlbench.harness._train_eval_cell", fake_cell)
        res = run_grid(
            ds, plans,
            [
                {"variant": "supcon", "tau": 0.9, "beta": 0.5},
                {"variant": "supcon", "tau": 0.5, "beta": 0.5},
            ],
            master_seed=24, shot=20, train_overrides=small_overrides(),
        )
        assert res.failed_points() == [0]
        assert res.best_index == 1

    def test_nan_loss_poisons_only_its_point(self, monkeypatch):
        # a loss that goes non-finite mid-training fails its cells, as
        # TrainingDivergedError; the grid and the baseline go on
        ds, plans = self.make_inputs(24, n=40, folds=2)
        points = [
            {"variant": "supcon", "tau": 0.9, "beta": 0.5},
            {"variant": "supcon", "tau": 0.5, "beta": 0.5},
        ]
        clean = run_grid(ds, plans, points, 24, 20, train_overrides=small_overrides())
        real_loss = trainer.dml_loss

        def nan_at_tau_09(batch, cfg, bank, rng):
            out = real_loss(batch, cfg, bank, rng)
            if cfg.tau == 0.9:
                return LossOutput(float("nan"), out.grad_embeddings)
            return out

        monkeypatch.setattr(trainer, "dml_loss", nan_at_tau_09)
        res = run_grid(ds, plans, points, 24, 20, train_overrides=small_overrides())
        assert res.failed_points() == [0]
        assert res.best_index == 1
        assert np.array_equal(res.fold_scores[1], clean.fold_scores[1])
        assert np.array_equal(res.baseline_scores, clean.baseline_scores)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cell_error_names_its_cell(self, monkeypatch, workers):
        # an error other than divergence stops the grid with its own type,
        # and its message names the point, fold and seed of the cell
        ds, plans = self.make_inputs(29, n=40, folds=2)
        point = {"variant": "supcon", "tau": 0.5, "beta": 0.5}
        failing = derive_seed(29, "train", 0, plans[1].fold_id)
        real_train = harness.train

        def train_failing_on_one_cell(texts, labels, num_classes, config):
            if config.seed == failing:
                raise LabelError("label 7 is unknown")
            return real_train(texts, labels, num_classes, config)

        monkeypatch.setattr(harness, "train", train_failing_on_one_cell)
        with pytest.raises(LabelError) as info:
            run_grid(ds, plans, [point], 29, 20, workers=workers, train_overrides=small_overrides())
        assert str(info.value) == (
            f"cell {point} fold {plans[1].fold_id} seed {failing}: label 7 is unknown"
        )

    def test_diverged_baseline_raises(self, monkeypatch):
        ds, plans = self.make_inputs(25)

        def fake_cell(texts, labels, nc, plan, point, seed, overrides, beta_inf):
            nan = float("nan")
            return (nan, nan) if point["variant"] == "cce" else (0.5, nan)

        monkeypatch.setattr("dmlbench.harness._train_eval_cell", fake_cell)
        with pytest.raises(TrainingDivergedError):
            run_grid(
                ds, plans, [{"variant": "supcon", "tau": 0.5, "beta": 0.5}],
                master_seed=25, shot=20, train_overrides=small_overrides(),
            )

    def test_single_fold_rejected_before_any_cell(self, monkeypatch):
        ds, plans = self.make_inputs(28, folds=1)

        def fake_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("dmlbench.harness._train_eval_cell", fake_cell)
        with pytest.raises(ConfigError, match="two folds"):
            run_grid(
                ds, plans, [{"variant": "supcon", "tau": 0.5, "beta": 0.5}],
                master_seed=28, shot=20, train_overrides=small_overrides(),
            )

    def test_mixed_variants_rejected(self):
        ds, plans = self.make_inputs(26)
        with pytest.raises(ConfigError):
            run_grid(
                ds, plans,
                [{"variant": "supcon", "tau": 0.5, "beta": 0.5},
                 {"variant": "npairs", "beta": 0.5}],
                master_seed=26, shot=20,
            )
        with pytest.raises(ConfigError):
            run_grid(ds, plans, [], master_seed=26, shot=20)

    def test_unknown_shot_rejected(self):
        # no per-shot epochs to fall back on, even with epochs given
        ds, plans = self.make_inputs(27)
        for overrides in (None, {"epochs": 1}):
            with pytest.raises(ConfigError):
                run_grid(
                    ds, plans, [{"variant": "npairs", "beta": 0.5}], master_seed=27, shot=37,
                    train_overrides=overrides,
                )


class TestReports:
    def grid_result(self, seed=30):
        ds = synth_dataset(2, 50, noise=0.1, seed=seed)
        plans = make_fold_plans(ds.labels, 3, 20, seed)
        return run_grid(
            ds, plans,
            [{"variant": "proxyanchor", "beta": 0.5, "pa_alpha": 32.0, "pa_delta": 0.1}],
            master_seed=seed, shot=20, train_overrides=small_overrides(),
        )

    def test_report_rows(self):
        report = result_to_report(self.grid_result())
        names = [r["name"] for r in report["rows"]]
        assert names == ["cce", "proxyanchor", "proxyanchor+inf"]
        assert report["rows"][0]["p_value"] is None
        assert report["grid"]["n_points"] == 1
        assert report["grid"]["best_point"]["variant"] == "proxyanchor"
        assert report["rows"][2]["point"]["beta_inf"] == 0.5

    def test_report_serializes_canonically(self):
        report = result_to_report(self.grid_result(31))
        text = canonical_json(report)
        assert canonical_json(json.loads(text)) == text

    def test_std_is_sample_std(self):
        report = result_to_report(self.grid_result(32))
        row = report["rows"][0]
        assert row["std"] == pytest.approx(float(np.std(row["per_fold"], ddof=1)))

    def test_format_cell_star_rule(self):
        assert format_cell(0.675, 0.0487, 0.049) == "67.50±4.87*"
        assert format_cell(0.675, 0.0487, 0.05) == "67.50±4.87"
        assert format_cell(0.675, 0.0487, None) == "67.50±4.87"

    def test_render_table_lines(self):
        report = result_to_report(self.grid_result(33))
        table = render_table(report)
        lines = table.strip().split("\n")
        assert len(lines) == 1 + len(report["rows"])
        assert lines[0].startswith("loss")

    def test_render_csv_round_trips_floats(self):
        report = result_to_report(self.grid_result(34))
        rows = render_csv(report).strip().split("\n")
        assert rows[0] == "name,fold,macro_f1"
        assert len(rows) == 1 + 3 * len(report["rows"])
        name, fold, score = rows[1].split(",")
        assert float(score) == report["rows"][0]["per_fold"][int(fold)]
