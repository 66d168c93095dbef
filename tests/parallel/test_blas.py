"""BLAS thread control: engine workers' inference runs on their core share.

Workers of an N-process engine pool narrow OpenBLAS to
``max(1, usable_cores // N)`` threads for :meth:`Sequential.predict_logits`
only; training, and every process the engine did not start, keep the
library's default. The narrowing must never change an output bit.
"""

import numpy as np
import pytest

from repro.dnn.config import NetworkConfig
from repro.dnn.factory import build_network
from repro.nn import Dense, Sequential
from repro.nn.layers import Layer
from repro.parallel import blas
from repro.parallel.engine import EngineConfig, EngineSession
from repro.parallel.pool import execution_profile

requires_backend = pytest.mark.skipif(
    blas.backend() == "none", reason="no controllable BLAS backend loaded"
)


class Probe(Layer):
    """Identity layer recording the library's thread count on every forward."""

    seen: list = []

    def forward(self, x, training=False):
        Probe.seen.append(blas.library_threads())
        return x

    def backward(self, grad):
        return grad


def _probed_network() -> Sequential:
    return Sequential([Dense(3, 2, rng=0), Probe()])


def _threads_around_inference(_):
    """Thread counts outside, inside ``predict_logits`` and inside ``fit``."""
    net = _probed_network()
    x = np.linspace(0.1, 1.0, 24, dtype=np.float32).reshape(8, 3)
    outside = blas.library_threads()
    Probe.seen.clear()
    net.predict_logits(x)
    inside = set(Probe.seen)
    Probe.seen.clear()
    net.fit(x, np.arange(8) % 2, epochs=1, batch_size=4, rng=0)
    during_fit = set(Probe.seen)
    return outside, inside, during_fit, blas.library_threads()


def _logits(seed):
    net = build_network(NetworkConfig.fast(), seed)
    x = np.random.default_rng(seed).random((64, 11), dtype=np.float32)
    return net.predict_logits(x)


class TestWorkerShare:
    def test_share_of_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert blas.usable_cores() == 8
        assert [blas.worker_share(p) for p in (1, 2, 3, 8, 16)] == [8, 4, 2, 1, 1]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(blas.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(blas.os, "cpu_count", lambda: 6)
        assert blas.usable_cores() == 6
        assert blas.worker_share(4) == 1
        monkeypatch.setattr(blas.os, "cpu_count", lambda: None)
        assert blas.worker_share(2) == 1


@requires_backend
class TestEngineWorkers:
    @pytest.mark.skipif(blas.usable_cores() < 2, reason="needs >= 2 usable cores")
    def test_inference_on_the_share_training_on_the_default(self):
        default = blas.library_threads()
        share = min(blas.worker_share(2), default)
        with EngineSession(EngineConfig(processes=2)) as session:
            results = session.run(_threads_around_inference, range(4))
        for outside, inside, during_fit, after in results:
            assert outside == after == default
            assert inside == {share}
            assert during_fit == {default}

    def test_parent_and_serial_session_untouched(self, monkeypatch):
        default = blas.library_threads()
        with EngineSession(EngineConfig(processes=2)) as session:
            session.run(_logits, range(2))
        assert blas._inference_share is None
        assert blas.library_threads() == default

        # Outside narrowed workers the scope never calls into the library.
        def unreachable():
            raise AssertionError("inference scope resolved the library")

        monkeypatch.setattr(blas, "_resolve", unreachable)
        with EngineSession(EngineConfig(processes=1)) as session:
            serial = session.run(_logits, range(2))
        assert all(r.shape == (64, 43) for r in serial)

    def test_share_at_or_above_the_default_never_sets(self, monkeypatch):
        """With one library thread (``OPENBLAS_NUM_THREADS=1``) the scope is a no-op."""
        name, _, get = blas._resolve()

        def refuse(threads):
            raise AssertionError(f"scope set {threads} thread(s)")

        monkeypatch.setattr(blas, "_library", (name, refuse, get))
        monkeypatch.setattr(blas, "_inference_share", blas.library_threads())
        assert _logits(0).shape == (64, 43)

    def test_profile_reports_the_share(self):
        profile = execution_profile(2)
        default = blas.library_threads()
        assert profile["blas"] == blas.backend()
        assert profile["blas_threads"] == default
        assert profile["inference_blas_threads"] == min(blas.worker_share(2), default)
        assert profile["oversubscribed"] == (2 * default > blas.usable_cores())
        assert execution_profile(1)["inference_blas_threads"] == default

    @pytest.mark.parametrize("rows", [1, 7, 300, 4096, 5000])
    def test_logits_byte_identical_at_share_and_default(self, monkeypatch, rows):
        if blas.library_threads() < 2:
            pytest.skip("library runs one thread: share and default coincide")
        net = build_network(NetworkConfig.fast(), 3)
        x = np.random.default_rng(rows).random((rows, 11), dtype=np.float32)
        default = net.predict_logits(x)
        monkeypatch.setattr(blas, "_inference_share", 1)
        narrowed = net.predict_logits(x)
        assert narrowed.tobytes() == default.tobytes()


class TestWithoutBackend:
    def test_failed_lookup_is_a_silent_no_op(self, monkeypatch):
        expected = [_logits(seed) for seed in range(2)]

        def no_library(*args, **kwargs):
            raise OSError("no such library")

        monkeypatch.setattr(blas, "_library", None)
        monkeypatch.setattr(blas.ctypes, "CDLL", no_library)
        assert blas.backend() == "none"
        assert blas.library_threads() is None
        profile = execution_profile(2)
        assert profile["blas"] == "none"
        assert profile["blas_threads"] is profile["inference_blas_threads"] is None
        monkeypatch.setattr(blas, "_inference_share", 1)
        assert all(np.array_equal(_logits(s), e) for s, e in enumerate(expected))
        with EngineSession(EngineConfig(processes=2)) as session:
            pooled = session.run(_logits, range(2))
        assert all(p.tobytes() == e.tobytes() for p, e in zip(pooled, expected))
