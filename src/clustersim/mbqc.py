"""One-way quantum-computing patterns on the four-qubit cluster resource.

A pattern is an ordered list of single-qubit measurements plus a read-only
table of outcome-conditioned Pauli correction words on the output qubits. It
depends only on its angles, so both builders are memoised per instruction
(32 each). The measurements run on `states`' one contraction for local
measurements (`_branches`), which gives every outcome branch at once.
Derivation contracts once per instruction; execution and the reassignment
check index one table per (pattern, resource), `_corrected`: every branch's
corrected output and probability, the words applied in the binary form of
`states._pauli_kernel` as one gather, memoised by content (`states._memoised`),
so the tables on `cluster4()` serve the next session too. Branch labels and
Pauli word tables are one cached enumeration, `_words`. A branch less likely
than `states._IMPOSSIBLE` is never taken. A branch's correction is the first
Pauli word, in I < X < Y < Z order, that maps it onto the circuit-model target.
Output states are fresh copies, valid by construction, unchecked (see `states`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .states import (
    CZ,
    RX,
    RZ,
    DensityMatrix,
    LocalBasis,
    PureState,
    _IMPOSSIBLE,
    _array,
    _branch,
    _branches,
    _memoised,
    _pauli_kernel,
    _trusted,
    apply_gate,
    cluster4,
    named_state,
)

FEEDFORWARD_FID_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def _words(letters: str, k: int) -> tuple:
    """Every k-letter word over `letters` in their order: branch labels, Pauli word tables."""
    return tuple(map("".join, itertools.product(letters, repeat=k)))


@dataclass(frozen=True)
class GateInstruction:
    """The two measurement angles (alpha, beta) selecting a gate."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class MeasurementPattern:
    resource_size: int
    steps: tuple  # ordered (qubit label, LocalBasis) pairs
    output_qubits: tuple
    corrections: dict  # outcome bitstring -> Pauli word on output qubits; kept read-only
    target: PureState | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((q, b) for q, b in self.steps))
        object.__setattr__(self, "output_qubits", tuple(self.output_qubits))
        measured = {q for q, _ in self.steps}
        if measured & set(self.output_qubits):
            raise ValueError("measured and output qubits must be disjoint")
        if measured | set(self.output_qubits) != set(range(1, self.resource_size + 1)):
            raise ValueError("steps and outputs must cover the register")
        branches = _words("01", len(self.steps))
        if sorted(self.corrections) != list(branches):
            raise ValueError("corrections must have one entry per outcome bitstring")
        k, words = len(self.output_qubits), tuple(self.corrections[b] for b in branches)
        for b, word in zip(branches, words):
            if not isinstance(word, str) or len(word) != k or set(word) - set("IXYZ"):
                raise ValueError(f"branch {b}: correction {word!r} is not a Pauli word on {k} qubits")
        object.__setattr__(self, "corrections", MappingProxyType(dict(zip(branches, words))))


@_memoised
def _corrected(steps: tuple, words: tuple, n: int, tensor: np.ndarray):
    """(outputs, probs): `_branches`' table on amplitudes or a density matrix
    with branch b's state P_b psi_b or P_b rho_b P_b^dagger, P_b = words[b],
    gathered for all branches at once."""
    states, probs = _branches.__wrapped__(steps, n, tensor)
    flip, phase = _pauli_kernel(words, n - len(steps))
    if tensor.ndim == 1:
        return (phase * states)[np.arange(len(flip))[:, None], flip], probs
    out = phase[:, :, None] * states * phase.conj()[:, None, :]
    return out[np.arange(len(flip))[:, None, None], flip[:, :, None], flip[:, None, :]], probs


def _table(pattern: MeasurementPattern, resource, kind):
    """The pattern's memoised `_corrected` table on a resource of type `kind`."""
    tensor = _array(resource, kind)
    if resource.n_qubits != pattern.resource_size:
        raise ValueError("resource size does not match pattern")
    return _corrected(pattern.steps, tuple(pattern.corrections.values()), resource.n_qubits, tensor)


def derive_feedforward(steps, output_qubits, resource: PureState, target: PureState) -> dict:
    """Find, for every outcome branch, the first Pauli word on the output
    qubits, in I < X < Y < Z order, that maps the residual state onto the
    target (fidelity above 1 - FEEDFORWARD_FID_TOL), trying all words on all
    branches in one batched product. Raises if some branch is impossible or
    not Pauli-equivalent to the target (wrong pattern or resource)."""
    n_out, steps = len(output_qubits), tuple((q, b) for q, b in steps)
    states, probs = _branches.__wrapped__(steps, resource.n_qubits, resource.amplitudes)
    words = _words("IXYZ", n_out)
    flip, phase = _pauli_kernel(words, n_out)
    overlaps = (target.amplitudes.conj()[flip] * phase) @ states.T  # <target|P_w, row w
    hits = (np.abs(overlaps) ** 2 > 1 - FEEDFORWARD_FID_TOL) & (probs >= _IMPOSSIBLE)
    branches = _words("01", len(steps))
    if not hits.any(axis=0).all():
        raise ValueError(
            f"branch {branches[int(hits.any(axis=0).argmin())]}: no Pauli correction "
            "reaches the target (resource cannot realize this gate)"
        )
    return {b: words[i] for b, i in zip(branches, hits.argmax(axis=0))}


def target_two_qubit(instr: GateInstruction) -> PureState:
    """Circuit-model target (RZ(alpha) x RZ(beta)) CZ |++>."""
    state = named_state("plus").tensor(named_state("plus"))
    state = apply_gate(state, CZ, [1, 2])
    state = apply_gate(state, RZ(instr.alpha), [1])
    return apply_gate(state, RZ(instr.beta), [2])


def target_single(instr: GateInstruction) -> PureState:
    """Circuit-model target RX(beta) RZ(alpha) |+>."""
    state = apply_gate(named_state("plus"), RZ(instr.alpha), [1])
    return apply_gate(state, RX(instr.beta), [1])


def _cluster_pattern(steps, outputs, target: PureState) -> MeasurementPattern:
    corrections = derive_feedforward(steps, outputs, cluster4(), target)
    return MeasurementPattern(4, steps, outputs, corrections, target)


@functools.lru_cache(maxsize=32)
def two_qubit_pattern(instr: GateInstruction) -> MeasurementPattern:
    """Measure qubits 2 and 3 of the cluster in the planar bases at the
    instruction angles; qubits 1 and 4 carry the two-qubit output."""
    steps = ((2, LocalBasis.planar_std(instr.alpha)), (3, LocalBasis.planar_std(instr.beta)))
    return _cluster_pattern(steps, (1, 4), target_two_qubit(instr))


@functools.lru_cache(maxsize=32)
def single_rotation_pattern(instr: GateInstruction) -> MeasurementPattern:
    """Disentangle qubit 4 with an X measurement, then measure qubits 1 and
    2 at the instruction angles; qubit 3 carries the rotated output."""
    steps = (
        (4, LocalBasis.x()),
        (1, LocalBasis.planar_had(instr.alpha)),
        (2, LocalBasis.planar_std(instr.beta)),
    )
    return _cluster_pattern(steps, (3,), target_single(instr))


def execute(pattern: MeasurementPattern, resource: PureState, branch=None, seed=None):
    """Run the pattern on a pure resource state.

    `branch` fixes all outcome bits; when None they are drawn from the Born
    distribution using `seed`. Returns (corrected output state, outcome
    bitstring, branch probability).
    """
    outcomes, psi, prob = _branch(_table(pattern, resource, PureState), branch, seed)
    return _trusted(PureState, len(pattern.output_qubits), np.array(psi)), outcomes, prob


def execute_density(pattern: MeasurementPattern, resource: DensityMatrix, branch):
    """Density-matrix variant of `execute` for noisy resources; the branch
    must be explicit."""
    if branch is None:
        raise TypeError("execute_density needs an explicit branch")
    outcomes, rho, prob = _branch(_table(pattern, resource, DensityMatrix), branch)
    return _trusted(DensityMatrix, len(pattern.output_qubits), np.array(rho)), outcomes, prob


def basis_reassignment_check(pattern: MeasurementPattern, resource: PureState) -> bool:
    """Check that applying the stored correction then measuring in Pauli
    bases is equivalent to measuring the uncorrected branch state in the
    correction-conjugated (reassigned) bases, for every branch. A pure
    state's statistics in all 3^k Pauli settings on the k output qubits fix
    its 4^k Pauli expectations and are fixed by them, so the check compares
    <P_b psi_b|Q|P_b psi_b> with <target|Q|target> for every word Q."""
    n_out = len(pattern.output_qubits)
    corrected, probs = _table(pattern, resource, PureState)  # row b is P_b psi_b
    if (probs < _IMPOSSIBLE).any():
        raise ValueError("a branch of the pattern has probability ~0")
    reference = corrected[0] if pattern.target is None else pattern.target.amplitudes
    psi = np.vstack([reference, corrected])
    q_flip, q_phase = _pauli_kernel(_words("IXYZ", n_out), n_out)  # <psi|Q|psi>: psi*[flip] phase psi
    e = np.einsum("bwi,wi,bi->bw", psi.conj()[:, q_flip], q_phase, psi).real
    return bool(np.all(np.abs(e[1:] - e[0]) <= 1e-9))


# Instruction sweeps matching the two reference tables of gate settings.
TWO_QUBIT_INSTRUCTIONS = tuple(
    GateInstruction(a, b)
    for a in (0.0, math.pi)
    for b in (0.0, math.pi / 2, math.pi, -math.pi / 2)
)
SINGLE_QUBIT_INSTRUCTIONS = (
    GateInstruction(0.0, 0.0),
    GateInstruction(math.pi, 0.0),
    GateInstruction(math.pi / 2, 0.0),
    GateInstruction(-math.pi / 2, 0.0),
    GateInstruction(math.pi / 2, math.pi / 2),
    GateInstruction(math.pi / 2, -math.pi / 2),
)
