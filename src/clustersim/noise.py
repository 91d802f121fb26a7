"""Simple noise channels linking ideal states to measured fidelities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, _pauli_kernel


@dataclass(frozen=True)
class NoiseSpec:
    """White noise mixes in the maximally mixed state with weight 1-p;
    dephasing applies a phase flip with probability p per listed qubit."""

    kind: str
    p: float
    qubits: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("white", "dephase"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("noise parameter must lie in [0, 1]")
        if self.qubits is not None:
            object.__setattr__(self, "qubits", tuple(self.qubits))
            if self.kind == "white":
                raise ValueError(f"white noise takes no qubit list, got {self.qubits}")
            if not self.qubits:
                raise ValueError("an empty dephasing qubit list dephases nothing")
            if len(set(self.qubits)) != len(self.qubits):
                raise ValueError(f"dephasing qubit labels must be distinct, got {self.qubits}")

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse 'white:0.86' or 'dephase:0.05:1,2'."""
        parts = text.split(":")
        if parts[0] == "white" and len(parts) == 2:
            return cls("white", float(parts[1]))
        if parts[0] == "dephase" and len(parts) in (2, 3):
            qubits = None
            if len(parts) == 3:
                labels = parts[2].split(",")
                if not all(q.strip() for q in labels):
                    raise ValueError(f"qubit list {parts[2]!r} has an empty label")
                qubits = tuple(int(q) for q in labels)
            return cls("dephase", float(parts[1]), qubits)
        raise ValueError(f"cannot parse noise spec {text!r}")


def _dephase_one(rho: np.ndarray, p: float, qubit: int, n: int) -> np.ndarray:
    """(1 - p) rho + p Z rho Z, where Z rho Z = (s s^T) * rho for Z's signs s."""
    s = _pauli_kernel(("Z",), n, (qubit,))[1][0].real
    return (1 - p) * rho + p * (np.outer(s, s) * rho)


def apply_noise(state: PureState, spec: NoiseSpec) -> DensityMatrix:
    """Apply the channel to a pure state, returning a density matrix."""
    n = state.n_qubits
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    if spec.kind == "white":
        dim = 2**n
        rho = spec.p * rho + (1 - spec.p) * np.eye(dim, dtype=complex) / dim
    else:
        qubits = spec.qubits if spec.qubits is not None else tuple(range(1, n + 1))
        for q in qubits:
            if not 1 <= q <= n:
                raise ValueError(f"qubit label {q} out of range 1..{n}")
            rho = _dephase_one(rho, spec.p, q, n)
    return DensityMatrix(n, rho)

