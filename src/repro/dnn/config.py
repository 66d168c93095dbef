"""Network and pretraining configurations.

Two presets exist: ``paper`` reproduces the architecture of Sec. IV-D
(five hidden layers, 2x1500 / 750 / 2x250 neurons, ~3.6 M weights), and
``fast`` is a reduced network for tests and laptop-scale sweeps. Which one a
run uses is recorded in EXPERIMENTS.md next to each reproduced number; the
``REPRO_NET`` environment variable switches the default.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.pmnf.searchspace import NUM_CLASSES
from repro.preprocessing.encoding import INPUT_SIZE
from repro.synthesis import training


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of the classifier network."""

    hidden_sizes: tuple[int, ...] = (1500, 1500, 750, 250, 250)
    input_size: int = INPUT_SIZE
    output_size: int = NUM_CLASSES
    name: str = "paper"

    def __post_init__(self) -> None:
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be positive")

    @classmethod
    def paper(cls) -> "NetworkConfig":
        """The exact architecture of the paper."""
        return cls()

    @classmethod
    def fast(cls) -> "NetworkConfig":
        """A reduced architecture for tests and quick sweeps.

        Calibrated on this reproduction's synthetic benchmark: top-3
        classification accuracy ~65 % on mixed-noise held-out data after the
        default pretraining budget, at ~1/30 the paper network's cost.
        """
        return cls(hidden_sizes=(512, 256, 128), name="fast")

    @classmethod
    def default(cls) -> "NetworkConfig":
        """Preset selected by the ``REPRO_NET`` environment variable."""
        choice = os.environ.get("REPRO_NET", "fast").lower()
        if choice == "paper":
            return cls.paper()
        if choice == "fast":
            return cls.fast()
        raise ValueError(f"REPRO_NET must be 'fast' or 'paper', got {choice!r}")


@dataclass(frozen=True)
class PretrainConfig:
    """Pretraining hyperparameters (generic network, Sec. IV-D)."""

    network: NetworkConfig = field(default_factory=NetworkConfig.default)
    samples_per_class: int = 1000
    epochs: int = 8
    batch_size: int = 256
    learning_rate: float = 0.002  # AdaMax default, as in the paper's optimizer
    max_repetitions: int = 5
    seed: int = 20210517  # fixed so the cached generic network is reproducible

    def cache_key(self) -> str:
        """Stable hash identifying this configuration on disk.

        Covers the training-set stream version too: a network pretrained on
        an older synthesis stream is a different network.
        """
        payload = json.dumps(
            {
                "hidden": self.network.hidden_sizes,
                "in": self.network.input_size,
                "out": self.network.output_size,
                "spc": self.samples_per_class,
                "epochs": self.epochs,
                "batch": self.batch_size,
                "lr": self.learning_rate,
                "reps": self.max_repetitions,
                "seed": self.seed,
                "stream": training.SYNTHESIS_STREAM_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def default(cls) -> "PretrainConfig":
        net = NetworkConfig.default()
        if net.name == "fast":
            # ~50 s one-time pretraining on a single core; cached afterwards.
            return cls(network=net, samples_per_class=2000, epochs=20)
        return cls(network=net)
