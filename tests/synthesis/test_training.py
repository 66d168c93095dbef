import numpy as np
import pytest

from repro.dnn.config import NetworkConfig
from repro.dnn.factory import build_network
from repro.nn.metrics import top_k_accuracy
from repro.nn.optimizers import AdaMax
from repro.noise.injection import DriftNoise, NoNoise, UniformLevelRangeNoise, UniformNoise
from repro.pmnf.searchspace import CONSTANT_CLASS, NUM_CLASSES, class_index
from repro.pmnf.terms import ExponentPair
from repro.preprocessing.encoding import INPUT_SIZE
from repro.synthesis.training import TrainingSetConfig, generate_training_set
from tests.synthesis.oracle import oracle_training_set, synthesize_sample

POW2 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])


def class_rows(config: TrainingSetConfig, label: int, rng: int = 0) -> np.ndarray:
    """The batched generator's rows of class ``label``."""
    X, y = generate_training_set(config, rng=rng, shuffle=False)
    return X[y == label]


class TestTrainingSetConfig:
    def test_defaults_valid(self):
        cfg = TrainingSetConfig()
        assert cfg.samples_per_class > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples_per_class": 0},
            {"min_points": 1},
            {"min_points": 8, "max_points": 6},
            {"max_points": 20},
            {"repetitions": 0},
            {"coefficient_range": (0.0, 1.0)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingSetConfig(**kwargs)


class TestSynthesizeSample:
    """The per-sample oracle and the batched generator agree on these shapes."""

    def test_shape(self):
        assert synthesize_sample(5, TrainingSetConfig(), rng=0).shape == (INPUT_SIZE,)
        assert class_rows(TrainingSetConfig(samples_per_class=4), 5).shape == (4, INPUT_SIZE)

    def test_constant_class_constant_vector(self):
        cfg = TrainingSetConfig(noise=NoNoise(), samples_per_class=6)
        # v / x decays for a constant function; values differ across slots.
        vec = synthesize_sample(CONSTANT_CLASS, cfg, rng=0)
        assert vec[vec != 0].size >= cfg.min_points
        for row in class_rows(cfg, CONSTANT_CLASS):
            assert row[row != 0].size >= cfg.min_points

    def test_fixed_parameter_value_sets_used(self):
        cfg = TrainingSetConfig(parameter_value_sets=[POW2], noise=NoNoise(), samples_per_class=6)
        assert np.count_nonzero(synthesize_sample(0, cfg, rng=1)) == 5
        assert np.all(np.count_nonzero(class_rows(cfg, 0), axis=1) == 5)

    def test_linear_class_noise_free_is_flat(self):
        """For f = c0 + c1*x, the enriched values v/x approach c1 -- the
        encoding of a purely linear function decays toward a constant."""
        label = class_index(ExponentPair(1, 0))
        cfg = TrainingSetConfig(parameter_value_sets=[POW2], noise=NoNoise(), samples_per_class=6)
        assert synthesize_sample(label, cfg, rng=2).max() == pytest.approx(1.0)
        np.testing.assert_allclose(class_rows(cfg, label).max(axis=1), 1.0)

    def test_oversized_value_set_rejected(self):
        cfg = TrainingSetConfig(parameter_value_sets=[np.arange(2.0, 20.0)])
        with pytest.raises(ValueError):
            synthesize_sample(0, cfg, rng=0)
        with pytest.raises(ValueError):
            generate_training_set(cfg, rng=0)


class TestGenerateTrainingSet:
    def test_balanced_classes(self):
        cfg = TrainingSetConfig(samples_per_class=3)
        X, y = generate_training_set(cfg, rng=0)
        assert X.shape == (3 * NUM_CLASSES, INPUT_SIZE)
        counts = np.bincount(y, minlength=NUM_CLASSES)
        assert np.all(counts == 3)

    def test_shuffled(self):
        cfg = TrainingSetConfig(samples_per_class=4)
        _, y = generate_training_set(cfg, rng=0, shuffle=True)
        assert not np.all(np.diff(y) >= 0)

    def test_unshuffled_grouped(self):
        cfg = TrainingSetConfig(samples_per_class=2)
        _, y = generate_training_set(cfg, rng=0, shuffle=False)
        assert np.all(np.diff(y) >= 0)

    def test_deterministic(self):
        cfg = TrainingSetConfig(samples_per_class=2, noise=UniformNoise(0.5))
        Xa, ya = generate_training_set(cfg, rng=11)
        Xb, yb = generate_training_set(cfg, rng=11)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_inputs_bounded(self):
        cfg = TrainingSetConfig(samples_per_class=5)
        X, _ = generate_training_set(cfg, rng=3)
        assert np.all(np.abs(X) <= 1.0 + 1e-12)
        assert np.all(np.isfinite(X))

    def test_mixed_layout_lengths(self):
        """Layouts of different lengths each keep their own point count."""
        seven = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        cfg = TrainingSetConfig(parameter_value_sets=[POW2, seven], samples_per_class=200)
        X, _ = generate_training_set(cfg, rng=5)
        counts = np.count_nonzero(X, axis=1)
        assert set(np.unique(counts)) == {5, 7}
        # Each layout is drawn with probability 1/2.
        assert 0.4 < np.mean(counts == 5) < 0.6

    def test_fixed_repetitions(self):
        """With ``fixed_repetitions`` every sample gets exactly that many."""
        cfg = TrainingSetConfig(
            parameter_value_sets=[POW2],
            samples_per_class=50,
            repetitions=3,
            fixed_repetitions=True,
            noise=UniformNoise(0.5),
        )
        X, _ = generate_training_set(cfg, rng=1)
        assert np.all(np.isfinite(X))

    def test_per_call_noise_model_uses_row_loop(self):
        """A model without a vectorized override goes through the default
        row-by-row ``apply_rows``, one ``apply`` per sample."""
        calls = []

        class Counting(DriftNoise):
            def apply(self, values, rng=None):
                calls.append(values.shape)
                return super().apply(values, rng)

        cfg = TrainingSetConfig(
            parameter_value_sets=[POW2], samples_per_class=7, noise=Counting(0.2)
        )
        generate_training_set(cfg, rng=0)
        assert len(calls) == 7 * NUM_CLASSES
        assert all(shape[0] == POW2.size for shape in calls)
        # "Up to five" repetitions: every count from 1 to 5 is drawn.
        assert {shape[1] for shape in calls} == {1, 2, 3, 4, 5}


def _slot_mean_z(X_new, X_ref, count):
    """z-scores of per-class per-slot mean differences (slots with spread)."""
    a = X_new.reshape(NUM_CLASSES, count, INPUT_SIZE)
    b = X_ref.reshape(NUM_CLASSES, count, INPUT_SIZE)
    se = np.sqrt(a.var(axis=1, ddof=1) / count + b.var(axis=1, ddof=1) / count)
    diff = a.mean(axis=1) - b.mean(axis=1)
    spread = se > 0
    # A slot without spread is a free (always-zero) slot in both sets.
    assert np.all(diff[~spread] == 0)
    return np.abs(diff[spread] / se[spread])


ADAPTATION_LIKE = TrainingSetConfig(
    samples_per_class=400,
    parameter_value_sets=[
        np.array([8.0, 64.0, 512.0, 4096.0, 32768.0]),
        np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
    ],
    noise=UniformLevelRangeNoise(0.04, 0.54),
    repetitions=5,
)
PRETRAINING_LIKE = TrainingSetConfig(samples_per_class=400)
SEEDS = (0, 1, 2)


def generator_pairs(config: TrainingSetConfig) -> list:
    """Per seed: the batched set and an oracle set drawn from another seed."""
    return [
        (
            generate_training_set(config, rng=seed, shuffle=False),
            oracle_training_set(config, rng=1000 + seed),
        )
        for seed in SEEDS
    ]


@pytest.fixture(scope="module")
def adaptation_pairs():
    return generator_pairs(ADAPTATION_LIKE)


@pytest.fixture(scope="module")
def pretraining_pairs():
    return generator_pairs(PRETRAINING_LIKE)


def assert_slot_means_match(pairs, count):
    z = np.concatenate(
        [_slot_mean_z(X_new, X_ref, count) for (X_new, _), (X_ref, _) in pairs]
    )
    assert z.max() <= 5.0, f"max |z| {z.max():.2f}"
    assert np.mean(z > 2.0) <= 0.08, f"share |z| > 2: {np.mean(z > 2.0):.3f}"


def _roughness(X):
    """Per row: mean |second difference| along the line's occupied slots."""
    occupied = X != 0
    values = np.take_along_axis(X, np.argsort(~occupied, axis=1, kind="stable"), axis=1)
    inner = occupied.sum(axis=1) - 2
    second = np.abs(values[:, 2:] - 2 * values[:, 1:-1] + values[:, :-2])
    valid = np.arange(INPUT_SIZE - 2)[None, :] < inner[:, None]
    return (second * valid).sum(axis=1) / inner


def assert_roughness_matches(pairs, count):
    z = []
    for (X_new, _), (X_ref, _) in pairs:
        a = _roughness(X_new).reshape(NUM_CLASSES, count)
        b = _roughness(X_ref).reshape(NUM_CLASSES, count)
        se = np.sqrt(a.var(axis=1, ddof=1) / count + b.var(axis=1, ddof=1) / count)
        z.append((a.mean(axis=1) - b.mean(axis=1)) / se)
    z = np.concatenate(z)
    assert np.abs(z).max() <= 5.0, f"max |z| {np.abs(z).max():.2f}"
    assert np.mean(np.abs(z) > 2.0) <= 0.08, f"share |z| > 2: {np.mean(np.abs(z) > 2.0):.3f}"
    pooled = z.mean() * np.sqrt(z.size)
    assert abs(pooled) <= 4.0, f"pooled z {pooled:.2f}"


class TestDistributionMatchesOracle:
    """The batched generator draws from the per-sample oracle's distribution.

    Per class and slot, the mean encoded value of 400 batched samples is
    compared with 400 oracle samples (a 43 x 11 grid of z-scores; free
    slots are exactly zero in both), for three seeds. Under the null about
    4.6 % of |z| exceed 2. Over 12 seeds the adaptation-like config gave a
    max |z| of 2.3-3.9 and a per-seed share of |z| > 2 of 1.4-9.3 % (slots
    within a class are strongly correlated, so one seed's share scatters
    widely); pooled over three seeds the share was 3.9-5.1 %. The
    pretraining-like config gave a max |z| of 2.6-3.5 and shares of
    2.1-4.4 % over four seeds. Bounds: max |z| <= 5 and a pooled share
    <= 8 %.

    Slot means are blind to a symmetric change of the noise scale, so the
    per-class mean within-line roughness (mean |second difference| along
    the occupied slots, which noise raises) is compared the same way, a
    43-class grid of z-scores per seed, plus the pooled mean z times
    sqrt(n). Over 12 seeds (adaptation-like) the per-seed max |z| was
    1.7-3.7 and the share of |z| > 2 0-9.3 %; pooled over three seeds the
    share was 2.3-6.2 % and the pooled z -0.6..+1.3 (pretraining-like, six
    seeds: max |z| 1.7-2.6, pooled z -0.7..+1.4). Scaling the noise by 1.5
    raises the pooled z to 9.9 (adaptation-like) and 29 (pretraining-like).
    Bounds: max |z| <= 5, a pooled share <= 8 %, |pooled z| <= 4.
    """

    def test_adaptation_slot_means(self, adaptation_pairs):
        assert_slot_means_match(adaptation_pairs, 400)

    def test_pretraining_slot_means(self, pretraining_pairs):
        assert_slot_means_match(pretraining_pairs, 400)

    def test_adaptation_roughness(self, adaptation_pairs):
        assert_roughness_matches(adaptation_pairs, 400)

    def test_pretraining_roughness(self, pretraining_pairs):
        assert_roughness_matches(pretraining_pairs, 400)


class TestHeldOutAccuracyMatchesOracle:
    """A tiny network learns as well from the batched set as from the oracle's.

    Same architecture, seed and budget (the 400 samples/class pretraining
    sets above, 4 epochs) on each generator's set; top-3 accuracy on one
    held-out oracle set of 100 samples/class. Over eight seeds the two
    accuracies (~0.29) differed by -0.012..+0.009 (standard deviation
    0.0075), so a tolerance of 0.03, four standard deviations, separates
    training noise from a generator that draws another distribution.
    """

    TOLERANCE = 0.03

    def test_top3_accuracy_within_tolerance(self, pretraining_pairs):
        X_held, y_held = oracle_training_set(TrainingSetConfig(samples_per_class=100), rng=999)

        def score(X, y, seed):
            net = build_network(NetworkConfig(hidden_sizes=(64, 64), name="tiny"), seed)
            net.fit(X, y, epochs=4, batch_size=128, optimizer=AdaMax(0.003), rng=seed)
            return top_k_accuracy(net.predict_proba(X_held), y_held, 3)

        for seed, (batched_set, oracle_set) in zip(SEEDS, pretraining_pairs):
            batched, oracle = score(*batched_set, seed), score(*oracle_set, seed)
            assert batched > 3 / NUM_CLASSES, "no better than chance"
            assert abs(batched - oracle) <= self.TOLERANCE, (seed, batched, oracle)
