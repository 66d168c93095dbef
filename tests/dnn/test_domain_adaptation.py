import numpy as np
import pytest

from repro.dnn.domain_adaptation import AdaptationTask, adapt_network
from repro.experiment.experiment import Experiment
from repro.noise.injection import UniformNoise
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.terms import ExponentPair
from repro.synthesis.measurements import synthesize_experiment

X1 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
X2 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])


def experiment(noise_level=0.3, reps=5) -> Experiment:
    f = PerformanceFunction.single_term(2.0, 1.0, [ExponentPair(1, 0), ExponentPair(1, 0)])
    return synthesize_experiment(f, [X1, X2], UniformNoise(noise_level), reps, rng=0)


class TestAdaptationTask:
    def test_from_kernel_extracts_value_sets(self):
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        assert task.parameter_value_sets == (tuple(X1), tuple(X2))
        assert task.repetitions == 5

    def test_noise_range_reflects_measurements(self):
        task = AdaptationTask.from_kernel(experiment(0.5).only_kernel(), 2)
        lo, hi = task.noise_range
        assert 0.0 <= lo < hi <= 0.7

    def test_from_experiment_pools_noise(self):
        exp = experiment(0.4)
        calm = exp.create_kernel("calm")
        for coord in exp.kernel("synthetic").coordinates:
            calm.add_values(coord, [1.0, 1.0, 1.0])
        task = AdaptationTask.from_experiment(exp)
        assert task.noise_range[0] == 0.0  # the calm kernel contributes zero

    def test_hashable_for_memoization(self):
        a = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        b = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        assert a == b and len({a, b}) == 1

    def test_long_line_thinned_like_the_encoder(self):
        """A 16-point line 2..65536 is shown to the classifier thinned to 11
        points with both endpoints; retraining must use that same layout,
        not the first 11 points (2..2048)."""
        from repro.experiment.lines import parameter_lines
        from repro.preprocessing.encoding import (
            assign_slots,
            encode_parameter_line,
            normalize_positions,
        )

        xs = 2.0 ** np.arange(1, 17)
        f = PerformanceFunction.single_term(2.0, 1.0, [ExponentPair(1, 0)])
        kernel = synthesize_experiment(f, [xs], UniformNoise(0.1), 3, rng=0).only_kernel()
        (layout,) = AdaptationTask.from_kernel(kernel, 1).parameter_value_sets
        assert len(layout) == 11
        assert layout[0] == 2.0 and layout[-1] == 65536.0
        # Same slots as the classifier's encoding of the measured line.
        encoded = encode_parameter_line(parameter_lines(kernel, 1)[0])
        slots = assign_slots(normalize_positions(np.asarray(layout)))
        assert np.array_equal(np.flatnonzero(encoded), np.sort(slots))

    def test_short_lines_keep_their_key(self):
        """Lines of at most 11 points are not touched by thinning."""
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        assert task.parameter_value_sets == (tuple(X1), tuple(X2))

    def test_training_config_guards_degenerate_range(self):
        task = AdaptationTask(((4.0, 8.0, 16.0, 32.0, 64.0),), (0.0, 0.0), 1)
        cfg = task.training_config(samples_per_class=10)
        assert cfg.noise.hi > 0  # retraining still sees some noise


class TestAdaptNetwork:
    def test_returns_new_network(self, tiny_network):
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        adapted = adapt_network(tiny_network, task, rng=0, samples_per_class=5)
        assert adapted is not tiny_network
        x = np.zeros((1, 11), dtype=np.float32)
        assert not np.allclose(adapted.predict_logits(x), tiny_network.predict_logits(x))

    def test_original_untouched(self, tiny_network):
        before = [w.copy() for w in tiny_network.get_weights()]
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        adapt_network(tiny_network, task, rng=0, samples_per_class=5)
        for w_before, w_after in zip(before, tiny_network.get_weights()):
            np.testing.assert_array_equal(w_before, w_after)

    def test_deterministic(self, tiny_network):
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        a = adapt_network(tiny_network, task, rng=9, samples_per_class=5)
        b = adapt_network(tiny_network, task, rng=9, samples_per_class=5)
        x = np.random.default_rng(0).random((4, 11)).astype(np.float32)
        np.testing.assert_array_equal(a.predict_logits(x), b.predict_logits(x))

    def test_spans_split_synthesis_from_training(self, tiny_network):
        """``adapt.training_set`` and ``adapt.train`` are sibling children of
        the adaptation span, and tracing does not change the weights."""
        from repro.obs import recording

        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        with recording(force=True) as tel:
            traced = adapt_network(tiny_network, task, rng=4, samples_per_class=5)
            spans = {record["name"]: record for record in tel.tracer.export()}
        root = spans["dnn.adapt_network"]
        assert spans["adapt.training_set"]["parent_id"] == root["span_id"]
        assert spans["adapt.train"]["parent_id"] == root["span_id"]
        untraced = adapt_network(tiny_network, task, rng=4, samples_per_class=5)
        for a, b in zip(traced.get_weights(), untraced.get_weights()):
            assert a.tobytes() == b.tobytes()

    def test_fused_spans_split_synthesis_from_training(self, tiny_network):
        from repro.dnn.domain_adaptation import adapt_networks_fused
        from repro.obs import recording

        keys = [
            AdaptationTask(((4.0, 8.0, 16.0, 32.0, 64.0),), (0.1, hi), 3).key()
            for hi in (0.2, 0.5)
        ]
        with recording(force=True) as tel:
            traced = adapt_networks_fused(tiny_network, keys, samples_per_class=5)
            spans = {record["name"]: record for record in tel.tracer.export()}
        root = spans["dnn.adapt_fused"]
        assert spans["adapt.training_set"]["parent_id"] == root["span_id"]
        assert spans["adapt.train"]["parent_id"] == root["span_id"]
        untraced = adapt_networks_fused(tiny_network, keys, samples_per_class=5)
        for key in keys:
            for a, b in zip(traced[key].get_weights(), untraced[key].get_weights()):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.slow
    def test_adaptation_improves_on_task_distribution(self, tiny_network):
        """Retraining on the task's sequences must improve classification on
        exactly that distribution -- the point of domain adaptation."""
        from repro.nn.metrics import top_k_accuracy
        from repro.synthesis.training import generate_training_set

        task = AdaptationTask(
            ((8.0, 64.0, 512.0, 4096.0, 32768.0),), (0.05, 0.3), 5
        )
        adapted = adapt_network(
            tiny_network, task, rng=0, samples_per_class=400, epochs=3
        )
        x, y = generate_training_set(task.training_config(40), rng=77)
        base = top_k_accuracy(tiny_network.predict_proba(x), y, 3)
        tuned = top_k_accuracy(adapted.predict_proba(x), y, 3)
        assert tuned > base
