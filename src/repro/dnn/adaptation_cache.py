"""On-disk store of domain-adapted networks, shared across a worker pool.

Domain adaptation dominates the adaptive modeler's runtime (Fig. 6), and a
process pool multiplies the cost: every worker re-adapts every task it
happens to receive. The store keys adapted weights by *content* -- the
generic network's weights digest plus the task cluster's
:class:`~repro.dnn.domain_adaptation.AdaptationKey` fingerprint and the
retraining hyperparameters -- so a parent pre-pass can adapt each cluster
once (:meth:`AdaptationStore.warm_up`, fused across clusters) and workers
load the finished weights instead of recomputing them.

Because adaptation RNG streams are derived from the key fingerprint (see
``adaptation_generator``), the stored weights are bit-identical to what any
worker would have computed itself; sharing them changes wall-clock time,
never results. Checkpoints are written atomically through
:meth:`Sequential.save`, and :meth:`warm_up` skips clusters that are
already on disk, so a killed warm-up resumes where it stopped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.dnn.domain_adaptation import (
    DEFAULT_ADAPTATION_BATCH_SIZE,
    DEFAULT_ADAPTATION_LEARNING_RATE,
    DEFAULT_EPOCHS,
    DEFAULT_NOISE_RESOLUTION,
    DEFAULT_SAMPLES_PER_CLASS,
    AdaptationKey,
    adapt_networks_fused,
)
from repro.nn.network import Sequential
from repro.obs import get_telemetry
from repro.run.manifest import RunManifest
from repro.synthesis import training
from repro.testing import faults
from repro.util.artifacts import sha256_file

#: How many clusters one fused retraining call stacks. Bounds peak memory:
#: each cluster contributes its full synthetic training set (43 *
#: samples_per_class rows) plus one network copy to the stacked fit.
DEFAULT_FUSE_LIMIT = 8


class AdaptationStore:
    """Content-addressed directory of adapted-network checkpoints.

    The store is cheap to pickle (a path plus hyperparameters), so it can
    ride into pool workers via fork or spawn initargs; all coordination
    happens through the filesystem, with atomic writes keeping concurrent
    readers safe.
    """

    def __init__(
        self,
        directory: "str | Path",
        resolution: float = DEFAULT_NOISE_RESOLUTION,
        epochs: int = DEFAULT_EPOCHS,
        samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS,
        learning_rate: float = DEFAULT_ADAPTATION_LEARNING_RATE,
        batch_size: int = DEFAULT_ADAPTATION_BATCH_SIZE,
        fuse_limit: int = DEFAULT_FUSE_LIMIT,
    ):
        if fuse_limit < 1:
            raise ValueError("fuse_limit must be positive")
        self.directory = Path(directory)
        self.resolution = float(resolution)
        self.epochs = int(epochs)
        self.samples_per_class = int(samples_per_class)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.fuse_limit = int(fuse_limit)
        #: ``id(network) -> (network, digest)`` memo; the identity check on
        #: read keeps an id collision from returning a stale digest.
        self._digest_memo: dict[int, tuple[Sequential, str]] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_digest_memo"] = {}
        return state

    # ------------------------------------------------------------- addressing
    def _network_digest(self, network: Sequential) -> str:
        entry = self._digest_memo.get(id(network))
        if entry is not None and entry[0] is network:
            return entry[1]
        digest = network.weights_digest()
        self._digest_memo[id(network)] = (network, digest)
        return digest

    def path(self, network: Sequential, key: AdaptationKey) -> Path:
        """Checkpoint path of ``key``'s adapted weights for ``network``.

        The name carries the training-set stream version, so weights
        retrained on an older synthesis stream are never loaded.
        """
        config = (
            f"e{self.epochs}-s{self.samples_per_class}-lr{self.learning_rate:g}"
            f"-b{self.batch_size}-v{training.SYNTHESIS_STREAM_VERSION}"
        )
        name = f"adapted-{self._network_digest(network)}-{key.fingerprint}-{config}.npz"
        return self.directory / name

    def __contains__(self, item: tuple[Sequential, AdaptationKey]) -> bool:
        network, key = item
        return self.path(network, key).exists()

    # ------------------------------------------------------------ load / save
    def load(self, network: Sequential, key: AdaptationKey) -> "Sequential | None":
        """The stored adapted network for ``key``, or ``None`` when absent."""
        path = self.path(network, key)
        metrics = get_telemetry().metrics
        if not path.exists():
            metrics.counter("dnn.adaptation.store_misses").inc()
            return None
        metrics.counter("dnn.adaptation.store_hits").inc()
        return Sequential.load(path)

    def save(self, network: Sequential, key: AdaptationKey, adapted: Sequential) -> Path:
        """Atomically persist ``adapted`` as ``key``'s cluster weights."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(network, key)
        adapted.save(path)
        return path

    # ---------------------------------------------------------------- warm-up
    def warm_up(
        self,
        network: Sequential,
        keys: "Iterable[AdaptationKey]",
        manifest: "RunManifest | None" = None,
    ) -> dict[str, int]:
        """Adapt every missing cluster once, fused in groups.

        ``keys`` may repeat (one entry per task); duplicates collapse onto
        their cluster. Already-stored clusters are skipped, which makes a
        rerun after a crash resume with only the remaining clusters -- the
        per-cluster RNG streams are independent, so a smaller fused group
        still produces bit-identical weights. Returns counters
        (``clusters``, ``adapted``, ``skipped``, ``tasks``).
        """
        telemetry = get_telemetry()
        unique: list[AdaptationKey] = []
        cluster_sizes: dict[AdaptationKey, int] = {}
        n_tasks = 0
        for key in keys:
            n_tasks += 1
            if key not in cluster_sizes:
                unique.append(key)
            cluster_sizes[key] = cluster_sizes.get(key, 0) + 1
        for size in cluster_sizes.values():
            telemetry.metrics.histogram("dnn.adaptation.cluster_size").observe(size)
        missing = [key for key in unique if not self.path(network, key).exists()]
        with telemetry.tracer.span(
            "dnn.adaptation.warm_up",
            tasks=n_tasks,
            clusters=len(unique),
            missing=len(missing),
        ):
            for start in range(0, len(missing), self.fuse_limit):
                group = missing[start : start + self.fuse_limit]
                adapted = adapt_networks_fused(
                    network,
                    group,
                    epochs=self.epochs,
                    samples_per_class=self.samples_per_class,
                    learning_rate=self.learning_rate,
                    batch_size=self.batch_size,
                )
                for key in group:
                    faults.fault_point("adaptation.warmup")
                    path = self.save(network, key, adapted[key])
                    if manifest is not None:
                        relative = _relative_to(path, manifest.directory)
                        if relative is not None:
                            manifest.record_artifact(
                                f"adaptation/{key.fingerprint}", relative, sha256_file(path)
                            )
        telemetry.metrics.counter("dnn.adaptation.warmup_adapted").inc(len(missing))
        telemetry.metrics.counter("dnn.adaptation.warmup_skipped").inc(
            len(unique) - len(missing)
        )
        return {
            "tasks": n_tasks,
            "clusters": len(unique),
            "adapted": len(missing),
            "skipped": len(unique) - len(missing),
        }

    def attach(self, modelers: "Sequence[object]") -> None:
        """Point every DNN-backed modeler in ``modelers`` at this store.

        Accepts both bare :class:`~repro.dnn.modeler.DNNModeler` instances
        and wrappers exposing one as ``.dnn`` (the adaptive modeler); other
        modelers are left untouched.
        """
        for modeler in modelers:
            dnn = getattr(modeler, "dnn", modeler)
            if hasattr(dnn, "adaptation_store"):
                dnn.adaptation_store = self
                dnn.adaptation_resolution = self.resolution

    def __repr__(self) -> str:
        return (
            f"AdaptationStore({str(self.directory)!r}, resolution={self.resolution}, "
            f"epochs={self.epochs}, samples_per_class={self.samples_per_class})"
        )


def resolve_store(
    adaptation_cache, modelers: "Sequence[object]"
) -> "tuple[AdaptationStore | None, list]":
    """Normalize an ``adaptation_cache`` argument into an attached store.

    Returns ``(store, adapting_dnns)``; a bare directory path builds a
    store matching the first adaptation-enabled DNN modeler's retraining
    settings (so CLI users pointing at a directory get compatible
    addressing for free), while a ready :class:`AdaptationStore` instance
    is used as given. With no adaptation-enabled DNN modeler there is
    nothing to share and ``(None, [])`` is returned.
    """
    adapting = []
    for modeler in modelers:
        dnn = getattr(modeler, "dnn", modeler)
        if getattr(dnn, "use_domain_adaptation", False) and hasattr(
            dnn, "adaptation_store"
        ):
            adapting.append(dnn)
    if not adapting:
        return None, []
    if isinstance(adaptation_cache, AdaptationStore):
        store = adaptation_cache
    else:
        store = AdaptationStore(
            adaptation_cache,
            resolution=adapting[0].adaptation_resolution,
            epochs=adapting[0].adaptation_epochs,
            samples_per_class=adapting[0].adaptation_samples_per_class,
        )
    store.attach(list(modelers))
    return store, adapting


def _relative_to(path: Path, base: Path) -> "str | None":
    """``path`` relative to ``base`` when it lives inside, else ``None``."""
    try:
        return str(path.resolve().relative_to(base.resolve()))
    except ValueError:
        return None
