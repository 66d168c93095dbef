"""Run fingerprints see the network behind every DNN-backed modeler.

A journaled run resumed under another generic network, or under another
training-set stream when the modeler adapts, must be refused instead of
mixing outcomes. Regression-only runs keep the fingerprint they always had,
so their old run dirs still resume.
"""

import pytest

from repro.casestudies import relearn
from repro.casestudies.driver import run_case_study
from repro.dnn.modeler import DNNModeler
from repro.evaluation.sweep import SweepConfig, run_sweep
from repro.modeling.registry import create_modeler, network_fingerprint
from repro.regression.modeler import RegressionModeler
from repro.run.manifest import (
    RunManifest,
    RunManifestError,
    config_fingerprint,
    legacy_config_fingerprint,
)
from repro.synthesis import training

SEED = 5
CONFIG = SweepConfig(n_params=1, noise_levels=(0.1,), n_functions=2, batch_size=2)


def dnn(network, adapt=False):
    return DNNModeler(
        network=network, use_domain_adaptation=adapt, adaptation_samples_per_class=5
    )


def wrapped(spec, network):
    """A registry modeler that wraps a DNN: ``adaptive`` adapts, ``fused`` does not."""
    if spec == "adaptive":
        return create_modeler(spec, network=network, adaptation_samples_per_class=5)
    return create_modeler(spec, network=network)


@pytest.fixture(scope="module")
def other_network(tiny_network):
    """The tiny network with one weight nudged: another generic network."""
    network = tiny_network.copy()
    weights = network.get_weights()
    weights[0] = weights[0].copy()
    weights[0].flat[0] += 1.0
    network.set_weights(weights)
    return network


class TestNetworkFingerprint:
    def test_empty_without_dnn_modelers(self):
        assert network_fingerprint({"regression": RegressionModeler()}) == ()

    def test_lists_digest_and_stream_version_when_adapting(self, tiny_network):
        digest = tiny_network.weights_digest()
        parts = network_fingerprint(
            {"b": dnn(tiny_network, adapt=True), "a": dnn(tiny_network), "r": RegressionModeler()}
        )
        assert parts == (("a", digest), ("b", digest, training.SYNTHESIS_STREAM_VERSION))

    def test_sees_through_wrapping_modelers(self, tiny_network):
        digest = tiny_network.weights_digest()
        parts = network_fingerprint(
            {"adaptive": wrapped("adaptive", tiny_network), "fused": wrapped("fused", tiny_network)}
        )
        assert parts == (
            ("adaptive", digest, training.SYNTHESIS_STREAM_VERSION),
            ("fused", digest),
        )


class TestSweepResume:
    def test_resume_across_networks_refused(self, tmp_path, tiny_network, other_network):
        run_sweep(CONFIG, {"dnn": dnn(tiny_network)}, rng=SEED, run_dir=tmp_path / "run")
        with pytest.raises(RunManifestError):
            run_sweep(
                CONFIG,
                {"dnn": dnn(other_network)},
                rng=SEED,
                run_dir=tmp_path / "run",
                resume=True,
            )
        resumed = run_sweep(
            CONFIG, {"dnn": dnn(tiny_network)}, rng=SEED, run_dir=tmp_path / "run", resume=True
        )
        assert resumed.cells

    @pytest.mark.parametrize("spec", ["adaptive", "fused"])
    def test_wrapped_resume_across_networks_refused(
        self, tmp_path, tiny_network, other_network, spec
    ):
        run_sweep(CONFIG, {spec: wrapped(spec, tiny_network)}, rng=SEED, run_dir=tmp_path / "run")
        with pytest.raises(RunManifestError):
            run_sweep(
                CONFIG,
                {spec: wrapped(spec, other_network)},
                rng=SEED,
                run_dir=tmp_path / "run",
                resume=True,
            )

    @pytest.mark.parametrize("spec", ["adaptive", "fused"])
    def test_wrapped_legacy_hash_refused(self, tmp_path, tiny_network, spec):
        parts = (CONFIG, f"seed:{SEED}", (spec,))
        RunManifest.create(tmp_path / "run", legacy_config_fingerprint(*parts))
        with pytest.raises(RunManifestError):
            run_sweep(
                CONFIG,
                {spec: wrapped(spec, tiny_network)},
                rng=SEED,
                run_dir=tmp_path / "run",
                resume=True,
            )

    def test_resume_across_stream_versions_refused(self, tmp_path, tiny_network, monkeypatch):
        modelers = {"dnn": dnn(tiny_network, adapt=True)}
        parts = (CONFIG, f"seed:{SEED}", ("dnn",))
        fingerprint = config_fingerprint(*parts, *network_fingerprint(modelers))
        RunManifest.create(tmp_path / "run", fingerprint)
        monkeypatch.setattr(
            training, "SYNTHESIS_STREAM_VERSION", training.SYNTHESIS_STREAM_VERSION + 1
        )
        with pytest.raises(RunManifestError):
            run_sweep(CONFIG, modelers, rng=SEED, run_dir=tmp_path / "run", resume=True)

    def test_legacy_hash_does_not_readmit_a_network(self, tmp_path, tiny_network):
        """A dir journaled before networks were fingerprinted cannot say
        which network it used, so a DNN-backed resume refuses it."""
        parts = (CONFIG, f"seed:{SEED}", ("dnn",))
        for name, fingerprint in (
            ("legacy", legacy_config_fingerprint(*parts)),
            ("canonical", config_fingerprint(*parts)),
        ):
            RunManifest.create(tmp_path / name, fingerprint)
            with pytest.raises(RunManifestError):
                run_sweep(
                    CONFIG,
                    {"dnn": dnn(tiny_network)},
                    rng=SEED,
                    run_dir=tmp_path / name,
                    resume=True,
                )

    @pytest.mark.parametrize("form", ["legacy", "canonical"])
    def test_old_regression_only_dir_still_resumes(self, tmp_path, form):
        parts = (CONFIG, f"seed:{SEED}", ("regression",))
        make = legacy_config_fingerprint if form == "legacy" else config_fingerprint
        RunManifest.create(tmp_path / "run", make(*parts))
        result = run_sweep(
            CONFIG,
            {"regression": RegressionModeler()},
            rng=SEED,
            run_dir=tmp_path / "run",
            resume=True,
        )
        assert result.cells


class TestCaseStudyResume:
    def test_resume_across_networks_refused(self, tmp_path, tiny_network, other_network):
        run_case_study(relearn(), {"dnn": dnn(tiny_network)}, rng=1, run_dir=tmp_path / "run")
        with pytest.raises(RunManifestError):
            run_case_study(
                relearn(),
                {"dnn": dnn(other_network)},
                rng=1,
                run_dir=tmp_path / "run",
                resume=True,
            )

    @pytest.mark.parametrize("spec", ["adaptive", "fused"])
    def test_wrapped_resume_across_networks_refused(
        self, tmp_path, tiny_network, other_network, spec
    ):
        run_case_study(
            relearn(), {spec: wrapped(spec, tiny_network)}, rng=1, run_dir=tmp_path / "run"
        )
        with pytest.raises(RunManifestError):
            run_case_study(
                relearn(),
                {spec: wrapped(spec, other_network)},
                rng=1,
                run_dir=tmp_path / "run",
                resume=True,
            )

    def test_old_regression_only_dir_still_resumes(self, tmp_path):
        parts = ("relearn", "seed:1", ("regression",))
        RunManifest.create(tmp_path / "run", legacy_config_fingerprint(*parts))
        result = run_case_study(
            relearn(),
            {"regression": RegressionModeler()},
            rng=1,
            run_dir=tmp_path / "run",
            resume=True,
        )
        assert result.outcomes
