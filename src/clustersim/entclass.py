"""Schmidt-rank signatures and fidelity ceilings for entanglement-class discrimination
among four-qubit states, from the memoised spectra of `states.schmidt_coefficients`."""

from __future__ import annotations

import numpy as np

from .states import PureState, schmidt_coefficients

# The three ways of splitting qubits 1..4 into two pairs, keyed by the
# partner of qubit 1.
PAIR_PARTITIONS = {"12": (1, 2), "13": (1, 3), "14": (1, 4)}

RANK_TOL = 1e-7

# Fidelity to the cluster above which biseparable states and every state of
# Schmidt rank <= 2 in cut 13 or 14 (GHZ and W types) are ruled out.
GENUINE_THRESHOLD = 0.5
# Above this, states of Schmidt rank <= 3 (Dicke type) are ruled out as well.
RANK3_THRESHOLD = 0.75


def rank_signature(state: PureState) -> tuple[int, int, int]:
    """(r12, r13, r14): Schmidt ranks above RANK_TOL across the three two-two cuts of a 4-qubit state."""
    if state.n_qubits != 4:
        raise ValueError("rank_signature requires a 4-qubit state")
    spectra = (schmidt_coefficients(state, part) for part in PAIR_PARTITIONS.values())
    return tuple(int(np.sum(s > RANK_TOL)) for s in spectra)


def fidelity_ceiling(target: PureState, partition, k: int) -> float:
    """Maximum fidelity to `target` achievable by any state of Schmidt rank
    <= k in the given cut: the sum of the k largest squared Schmidt
    coefficients."""
    coeffs = schmidt_coefficients(target, partition)
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= coeffs.size:
        raise ValueError(f"k must be an integer in 1..{coeffs.size}, got {k!r}")
    return float(np.sum(coeffs[:k] ** 2))


def classify_by_fidelity(f: float) -> list[str]:
    """Entanglement classes excluded by a cluster-state fidelity value.

    Thresholds are strict; boundary values exclude nothing. Takes a point
    value and ignores error bars.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    excluded = ["biseparable", "ghz-w"] if f > GENUINE_THRESHOLD else []
    return excluded + (["dicke"] if f > RANK3_THRESHOLD else [])
