"""Fidelity-bound observables for the four-qubit cluster state.

Two few-setting observables give lower bounds on the cluster-state
fidelity: a six-term one needing two measurement settings and an
eight-term one needing four settings; both are dominated by the cluster
projector, so they never exceed the fidelity (`verify_dominance`, memoised: the
offset I plus each term's `states._pauli_kernel` phases scattered, in term order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PauliString, PureState, _memoised, _pauli_kernel, pauli_expectation


@dataclass(frozen=True)
class ObservableSum:
    """Weighted sum of Pauli strings plus a multiple of the identity."""

    terms: tuple[PauliString, ...]
    identity_offset: float = 0.0

    def __post_init__(self):
        terms = tuple(self.terms)
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
    """One local Pauli basis per qubit, e.g. 'XXZZ'."""

    bases: str

    def __post_init__(self):
        if not self.bases or any(c not in "XYZ" for c in self.bases):
            raise ValueError(f"invalid setting {self.bases!r}")

    def covers(self, word: str) -> bool:
        """True if `word` is obtained from this setting by replacing letters with I."""
        return len(word) == len(self.bases) and _join(self.bases, word) == self.bases


def build_b2() -> ObservableSum:
    """Two-setting bound observable: six words at 1/4 minus half the identity."""
    words = ("ZZII", "IZXX", "ZIXX", "XXZI", "IIZZ", "XXIZ")
    return ObservableSum(tuple(PauliString(w, 0.25) for w in words), identity_offset=-0.5)


def build_b4() -> ObservableSum:
    """Four-setting bound observable: four X-words at +1/8 and four Y-words at -1/8."""
    plus = ("XXZI", "IZXX", "ZIXX", "XXIZ")
    minus = ("YYZI", "IZYY", "ZIYY", "YYIZ")
    terms = tuple(PauliString(w, 0.125) for w in plus) + tuple(
        PauliString(w, -0.125) for w in minus
    )
    return ObservableSum(terms, identity_offset=0.0)


def witness_expectation(state, b: ObservableSum) -> float:
    """Sum of term expectations plus the identity offset."""
    return sum(pauli_expectation(state, t) for t in b.terms) + b.identity_offset


def verify_dominance(b: ObservableSum, target: PureState) -> float:
    """Smallest eigenvalue of |target><target| - B (nonnegative iff B is a
    valid fidelity lower bound), memoised by B and the target's content."""
    if b.n_qubits != target.n_qubits:
        raise ValueError(f"observable on {b.n_qubits} qubits, target on {target.n_qubits}")
    return _dominance(b, target.amplitudes)[0]


@_memoised
def _dominance(b: ObservableSum, amps: np.ndarray):
    flip, phase = _pauli_kernel(tuple(t.word for t in b.terms), b.n_qubits)
    op = b.identity_offset * np.eye(flip.shape[1], dtype=complex)
    for term, f, p in zip(b.terms, flip, phase):
        op[f, np.arange(f.size)] += term.coefficient * p
    return (float(np.linalg.eigvalsh(np.outer(amps, amps.conj()) - op)[0]),)


def _join(a: str, b: str) -> str | None:
    """Merge two words letter-wise if compatible (equal or one is I)."""
    out = []
    for x, y in zip(a, b):
        if x == "I":
            out.append(y)
        elif y == "I" or x == y:
            out.append(x)
        else:
            return None
    return "".join(out)


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
