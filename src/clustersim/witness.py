"""Observables of the four-qubit cluster state: signed sums of its stabilizer words.

The fidelity F is the cluster projector, the mean of all 16 stabilizer
elements (nine settings). Two few-setting observables bound it from below, a
six-term one needing two settings and an eight-term one needing four: the
projector dominates both (`verify_dominance`, memoised: the offset I plus
each term's `states._pauli_kernel` phases scattered, in term order)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PauliString, PureState, _array, _memoised, _pauli_kernel, _words, cluster4, pauli_expectation


@dataclass(frozen=True)
class ObservableSum:
    """Weighted sum of Pauli strings (a str term is read by PauliString) plus a multiple of the identity."""

    terms: tuple[PauliString, ...]
    identity_offset: float = 0.0

    def __post_init__(self):
        if isinstance(self.terms, str):  # its letters would each read as a one-qubit term
            raise TypeError(f"terms must be a sequence of Pauli terms, not the str {self.terms!r}")
        terms = tuple(PauliString(t) if isinstance(t, str) else t for t in self.terms)
        if bad := [t for t in terms if not isinstance(t, PauliString)]:
            raise TypeError(f"a Pauli term is a str or a PauliString, not {type(bad[0]).__name__}")
        if not terms:
            raise ValueError("an observable needs at least one Pauli term")
        if any(len(t.word) != len(terms[0].word) for t in terms):
            raise ValueError("all Pauli words must have equal length")
        object.__setattr__(self, "terms", terms)

    @property
    def n_qubits(self) -> int:
        return len(self.terms[0].word)


@dataclass(frozen=True)
class TomographicSetting:
    """One local Pauli basis per qubit, e.g. 'XXZZ': the reader of a setting given as a str."""

    bases: str
    _MAX_QUBITS = 16  # its outcome-label table holds 2^n labels, 4.6 MiB at 16

    def __post_init__(self):
        if not isinstance(self.bases, str):
            raise TypeError(f"unsupported setting type {type(self.bases)}")
        if not self.bases or any(c not in "XYZ" for c in self.bases):
            raise ValueError(f"invalid setting {self.bases!r}")
        if len(self.bases) > self._MAX_QUBITS:
            raise ValueError(f"a setting on {len(self.bases)} qubits exceeds the limit of {self._MAX_QUBITS}")

    def covers(self, word: str) -> bool:
        """True if `word` is obtained from this setting by replacing letters with I."""
        return len(word) == len(self.bases) and _join(self.bases, word) == self.bases


def _signed(words, scale: float, offset: float = 0.0) -> ObservableSum:
    """Each word (None: the 15 stabilizer words other than every[0] = IIII) at its sign
    <C|P|C> on the cluster C = cluster4(), read in one batched kernel call, times `scale`, plus offset I."""
    every, amps = _words(("IXYZ",) * 4), cluster4().amplitudes
    flip, phase = _pauli_kernel(every, 4)
    signs = dict(zip(every, (amps.conj()[flip] * phase * amps).sum(1).real.tolist()))
    words = [w for w in every[1:] if signs[w]] if words is None else words
    return ObservableSum(tuple(PauliString(w, signs[w] * scale) for w in words), offset)


def build_b2() -> ObservableSum:
    """Two-setting bound observable: six words at sign/4 (all +1) minus half the identity."""
    return _signed(("ZZII", "IZXX", "ZIXX", "XXZI", "IIZZ", "XXIZ"), 0.25, -0.5)


def build_b4() -> ObservableSum:
    """Four-setting bound observable: eight words at sign/8, in the order that fixes its settings' order."""
    return _signed(("XXZI", "IZXX", "ZIXX", "XXIZ", "YYZI", "IZYY", "ZIYY", "YYIZ"), 0.125)


def build_fidelity() -> ObservableSum:
    """The cluster projector F = (1/16) sum of its 16 stabilizer elements: 15 words at sign/16 plus I/16."""
    return _signed(None, 0.0625, 0.0625)


def witness_expectation(state, b: ObservableSum) -> float:
    """Sum of term expectations plus the identity offset."""
    return sum(pauli_expectation(state, t) for t in b.terms) + b.identity_offset


def verify_dominance(b: ObservableSum, target: PureState) -> float:
    """Smallest eigenvalue of |target><target| - B (nonnegative iff B is a
    valid fidelity lower bound), memoised by B and the target's content."""
    amps = _array(target, PureState)
    if b.n_qubits != target.n_qubits:
        raise ValueError(f"observable on {b.n_qubits} qubits, target on {target.n_qubits}")
    return _dominance(b, amps)[0]


@_memoised
def _dominance(b: ObservableSum, amps: np.ndarray):
    flip, phase = _pauli_kernel(tuple(t.word for t in b.terms), b.n_qubits)
    op = b.identity_offset * np.eye(flip.shape[1], dtype=complex)
    for term, f, p in zip(b.terms, flip, phase):
        op[f, np.arange(f.size)] += term.coefficient * p
    return (float(np.linalg.eigvalsh(np.outer(amps, amps.conj()) - op)[0]),)


def _join(a: str, b: str) -> str | None:
    """Merge two words letter-wise if compatible (equal or one is I)."""
    if any(x != y and "I" not in (x, y) for x, y in zip(a, b)):
        return None
    return "".join(y if x == "I" else x for x, y in zip(a, b))


def required_settings(b: ObservableSum) -> list[TomographicSetting]:
    """A minimal list of settings covering every term of the observable.

    Terms are greedily merged in order into compatible groups; leftover
    identity slots are completed with Z for a deterministic result.
    """
    groups: list[str] = []
    for term in b.terms:
        for i, g in enumerate(groups):
            merged = _join(g, term.word)
            if merged is not None:
                groups[i] = merged
                break
        else:
            groups.append(term.word)
    return [TomographicSetting(g) for g in dict.fromkeys(g.replace("I", "Z") for g in groups)]
