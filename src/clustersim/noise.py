"""Simple noise channels linking ideal states to measured fidelities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import _ROW_BLOCK, DensityMatrix, PureState, _array, _check_qubits, _pauli_kernel, _trusted


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
        kind, *fields = text.split(":")
        if (kind, len(fields)) not in (("white", 1), ("dephase", 1), ("dephase", 2)):
            raise ValueError(f"cannot parse noise spec {text!r}")
        qubits = None
        if len(fields) == 2:
            labels = fields[1].split(",")
            if not all(q.strip() for q in labels):
                raise ValueError(f"qubit list {fields[1]!r} has an empty label")
            qubits = tuple(_field(int, q, "qubit label {!r} is not an integer") for q in labels)
        return cls(kind, _field(float, fields[0], "noise parameter {!r} is not a number"), qubits)


def _field(convert, text: str, message: str):
    """convert(text), or a ValueError with the message naming the field."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(message.format(text)) from None


def apply_noise(state: PureState, spec: NoiseSpec) -> DensityMatrix:
    """Apply the channel to a pure state, returning a density matrix."""
    psi, n = _array(state, PureState), state.n_qubits
    rho = np.outer(psi, psi.conj())
    if spec.kind == "white":
        rho = spec.p * rho + (1 - spec.p) * np.eye(2**n, dtype=complex) / 2**n
    else:
        qubits = spec.qubits if spec.qubits is not None else tuple(range(1, n + 1))
        _check_qubits(qubits, n)
        for q in qubits:  # (1 - p) rho + p Z rho Z, where Z rho Z = (s s^T) * rho for Z's signs s
            s = _pauli_kernel(("Z",), n, (q,))[1][0].real
            for i in range(0, len(rho), _ROW_BLOCK):  # in place, row block by row block
                block = rho[i : i + _ROW_BLOCK]
                block[...] = (1 - spec.p) * block + spec.p * (np.outer(s[i : i + _ROW_BLOCK], s) * block)
    return _trusted(DensityMatrix, n, rho)

