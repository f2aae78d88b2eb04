"""VMDec baseline: Markov-model anomaly detection on I/O sequences.

VMDec (Chen et al., 2018) trains a first-order Markov model over the
guest's I/O event stream and flags sequences containing transitions whose
learned probability falls below a threshold.  It needs no device
internals — which is also its weakness: exploits whose I/O streams look
statistically ordinary (e.g. Venom's long run of data-port writes) slip
through, the imprecision the paper cites for model-based detection.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

Token = Tuple[str, int]     # (direction, port offset)
START: Token = ("start", -1)


def tokenize(io_key: str) -> Token:
    """``pmio:write:5`` -> ("write", 5)."""
    _, direction, offset = io_key.split(":")
    return (direction, int(offset))


@dataclass
class MarkovModel:
    """First-order transition model with add-one smoothing disabled —
    unseen transitions are genuinely zero-probability, as in VMDec."""

    counts: Dict[Token, Dict[Token, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    totals: Dict[Token, int] = field(
        default_factory=lambda: defaultdict(int))

    def train(self, sequence: Iterable[str]) -> None:
        prev = START
        for io_key in sequence:
            token = tokenize(io_key)
            self.counts[prev][token] += 1
            self.totals[prev] += 1
            prev = token

    def probability(self, prev: Token, token: Token) -> float:
        total = self.totals.get(prev, 0)
        if total == 0:
            return 0.0
        return self.counts[prev][token] / total

    def score(self, sequence: Iterable[str]) -> float:
        """Minimum transition probability along the sequence."""
        prev = START
        minimum = 1.0
        for io_key in sequence:
            token = tokenize(io_key)
            minimum = min(minimum, self.probability(prev, token))
            prev = token
        return minimum


@dataclass
class VMDecDetector:
    """Threshold detector over the Markov model."""

    model: MarkovModel = field(default_factory=MarkovModel)
    threshold: float = 1e-4

    def train_sequences(self, sequences: Iterable[List[str]]) -> None:
        for sequence in sequences:
            self.model.train(sequence)

    def is_anomalous(self, sequence: List[str]) -> bool:
        return self.model.score(sequence) < self.threshold

    def flagged_positions(self, sequence: List[str]) -> List[int]:
        """Indices of below-threshold transitions (for analysis)."""
        out: List[int] = []
        prev = START
        for i, io_key in enumerate(sequence):
            token = tokenize(io_key)
            if self.model.probability(prev, token) < self.threshold:
                out.append(i)
            prev = token
        return out


class IOSequenceRecorder:
    """Captures the I/O key stream of a VM for VMDec training/testing."""

    def __init__(self, vm):
        self.sequence: List[str] = []
        self._orig = vm._io

        def spy(device, key, args, *route):
            self.sequence.append(key)
            return self._orig(device, key, args, *route)

        vm._io = spy
