"""The training-set stream version is folded into every artifact it shapes."""

from repro.dnn.adaptation_cache import AdaptationStore
from repro.dnn.config import NetworkConfig, PretrainConfig
from repro.dnn.domain_adaptation import AdaptationTask
from repro.synthesis import training


def test_current_version():
    assert training.SYNTHESIS_STREAM_VERSION == 2


def test_cache_key_and_store_path_follow_the_version(monkeypatch, tmp_path, tiny_network):
    config = PretrainConfig(network=NetworkConfig.fast())
    store = AdaptationStore(tmp_path)
    key = AdaptationTask(
        parameter_value_sets=((4.0, 8.0, 16.0, 32.0, 64.0),),
        noise_range=(0.1, 0.2),
        repetitions=3,
    ).key()
    before = (config.cache_key(), store.path(tiny_network, key))
    monkeypatch.setattr(training, "SYNTHESIS_STREAM_VERSION", training.SYNTHESIS_STREAM_VERSION + 1)
    after = (config.cache_key(), store.path(tiny_network, key))
    assert before[0] != after[0]
    assert before[1] != after[1]
    assert before[1].parent == after[1].parent


def test_old_stream_weights_are_not_loaded(monkeypatch, tmp_path, tiny_network):
    """Weights saved under one stream version are a miss under the next."""
    store = AdaptationStore(tmp_path)
    key = AdaptationTask(
        parameter_value_sets=((4.0, 8.0, 16.0, 32.0, 64.0),),
        noise_range=(0.1, 0.2),
        repetitions=3,
    ).key()
    store.save(tiny_network, key, tiny_network)
    assert store.load(tiny_network, key) is not None
    monkeypatch.setattr(training, "SYNTHESIS_STREAM_VERSION", training.SYNTHESIS_STREAM_VERSION + 1)
    assert store.load(tiny_network, key) is None
