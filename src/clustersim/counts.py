"""Coincidence-count records per tomographic setting: synthesis, ingestion,
outcome probabilities, Pauli expectations, and witness bounds with
Poissonian error bars.

Outcome labels per local basis: Z -> H/V, X -> +/-, Y -> R/L, with the
first label (bit 0) being the +1 eigenvector of the corresponding Pauli
operator. Outcomes are indexed with qubit 1 as the most significant bit.

Each Born vector is computed once per (state, setting), in the memo that
branch tables share (`states._memoised`). Counts are int64; a count or a
setting's total past 2**63 - 1 is an error, not a wrap.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .states import _ROW_BLOCK, DensityMatrix, LocalBasis, PureState, _memoised, _pauli_kernel
from .witness import ObservableSum, TomographicSetting, required_settings

_OUTCOME_LETTERS = {"Z": "HV", "X": "+-", "Y": "RL"}
_MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one tomographic setting, one per outcome."""

    setting: TomographicSetting
    counts: np.ndarray

    def __post_init__(self):
        try:
            counts = np.array(self.counts, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"setting {self.setting.bases}: counts must lie in 0..2**63 - 1") from None
        if counts.shape != (2 ** len(self.setting.bases),):
            raise ValueError("counts length must be 2^n for the setting")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if sum(counts.tolist()) > _MAX_COUNT:  # Python ints: an int64 sum would wrap
            raise ValueError(f"setting {self.setting.bases}: total count exceeds 2**63 - 1")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def outcome_string(setting: TomographicSetting, index: int) -> str:
    """Label like '++HH' for an outcome index under the given setting."""
    n = len(setting.bases)
    return "".join(
        _OUTCOME_LETTERS[b][(index >> (n - 1 - i)) & 1] for i, b in enumerate(setting.bases)
    )


def outcome_index(setting: TomographicSetting, label: str) -> int:
    """Inverse of `outcome_string`."""
    if len(label) != len(setting.bases):
        raise ValueError(f"outcome {label!r} has wrong length")
    idx = 0
    for b, c in zip(setting.bases, label):
        letters = _OUTCOME_LETTERS[b]
        if c not in letters:
            raise ValueError(f"outcome letter {c!r} invalid for basis {b}")
        idx = (idx << 1) | letters.index(c)
    return idx


def born_distribution(state, setting: TomographicSetting) -> np.ndarray:
    """Exact outcome probabilities for measuring every qubit in its setting
    basis (`states.LocalBasis`, outcome bit 0 the +1 eigenvector), memoised."""
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state)}")
    n = state.n_qubits
    if len(setting.bases) != n:
        raise ValueError(f"setting {setting.bases!r} does not match a register of {n} qubits")
    tensor = state.amplitudes if isinstance(state, PureState) else state.entries
    return _born(setting.bases, tensor).copy()


@_memoised
def _born(bases: str, tensor: np.ndarray) -> np.ndarray:
    """Bras u (2^n, 2^n), row = outcome index: the Kronecker product of the
    letters' conj(LocalBasis(b).vectors()) by broadcasting, as np.kron's values."""
    u = np.ones((1, 1), dtype=complex)
    for b in bases:
        rows = np.conj(LocalBasis(b).vectors())
        u = (u[:, None, :, None] * rows[None, :, None, :]).reshape(2 * len(u), -1)
    if tensor.ndim == 1:
        probs = np.abs(u @ tensor) ** 2
    else:  # over row blocks of u, bit-identical to one einsum without a whole u.conj()
        blocks = (u[i : i + _ROW_BLOCK] for i in range(0, len(u), _ROW_BLOCK))
        probs = np.concatenate([np.real(np.einsum("ij,jk,ik->i", b, tensor, b.conj())) for b in blocks])
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    probs.flags.writeable = False
    return probs


def sample_counts(state, setting: TomographicSetting, total: int, seed: int) -> CountRecord:
    """Multinomial draw of `total` coincidence events from the Born
    distribution; deterministic given the seed."""
    if total < 1:
        raise ValueError("total must be at least 1")
    if total > _MAX_COUNT:
        raise ValueError(f"total {total} exceeds 2**63 - 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total, born_distribution(state, setting))
    return CountRecord(setting, counts)


def exact_record(state, setting: TomographicSetting, total: int = 10**9) -> CountRecord:
    """Infinite-statistics stand-in: counts proportional to exact Born
    probabilities (rounded)."""
    probs = born_distribution(state, setting)
    return CountRecord(setting, np.rint(probs * total).astype(np.int64))


class ZeroCountsError(ValueError):
    """A record that an estimate needs has zero total counts."""


def probabilities(rec: CountRecord) -> np.ndarray:
    """Counts normalized by the total number of events."""
    if rec.total == 0:
        raise ZeroCountsError(f"setting {rec.setting.bases} has zero total counts")
    return rec.counts / rec.total


def expectation_from_counts(rec: CountRecord, word) -> tuple[float, float]:
    """Pauli expectation and its Poissonian standard error from counts.

    The word must be obtained from the record's setting by replacing
    letters with I; each outcome contributes the product of its +/-1
    eigenvalues over the word's non-identity positions.
    """
    word_str = getattr(word, "word", word)
    if not rec.setting.covers(word_str):
        raise ValueError(f"word {word_str!r} incompatible with setting {rec.setting.bases}")
    if rec.total == 0:
        raise ZeroCountsError(f"setting {rec.setting.bases} has zero total counts")
    support = word_str.translate(str.maketrans("XY", "ZZ"))
    signs = _pauli_kernel((support,), len(word_str))[1][0].real
    total = rec.total
    value = float(np.dot(signs, rec.counts)) / total
    sigma = math.sqrt(float(np.dot(rec.counts, (signs - value) ** 2))) / total
    return value, sigma


def _aggregate(records: list[CountRecord]) -> list[CountRecord]:
    """Sum records sharing a setting, keeping first-appearance order; the
    sums are exact Python ints, so one past 2**63 - 1 is an error, not a wrap."""
    merged: dict[str, tuple] = {}
    for rec in records:
        setting, summed = merged.get(rec.setting.bases, (rec.setting, 0))
        merged[rec.setting.bases] = setting, summed + rec.counts.astype(object)
    return [CountRecord(s, c) for s, c in merged.values()]


def witness_from_counts(records: list[CountRecord], b: ObservableSum) -> tuple[float, float]:
    """Fidelity lower bound and its error from measured counts.

    Each term is evaluated against the first compatible record; the error
    is the quadrature sum of the per-term propagated sigmas.
    """
    records = _aggregate(records)
    bound = b.identity_offset
    variance = 0.0
    for term in b.terms:
        for rec in records:
            if rec.setting.covers(term.word):
                value, sigma = expectation_from_counts(rec, term.word)
                bound += term.coefficient * value
                variance += (term.coefficient * sigma) ** 2
                break
        else:
            needed = [s.bases for s in required_settings(b)]
            raise ValueError(
                f"no record covers term {term.word!r}; settings needed: {needed}"
            )
    return bound, math.sqrt(variance)


CSV_HEADER = ["setting", "outcome", "count"]


def parse_counts(text: str) -> list[CountRecord]:
    """Parse CSV with header `setting,outcome,count`; rows sharing a setting
    are grouped (first-appearance order) and missing outcomes default to 0.
    A row that takes its setting's total past 2**63 - 1 is an error."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows or [c.strip() for c in rows[0]] != CSV_HEADER:
        raise ValueError("expected header 'setting,outcome,count'")
    accum: dict[str, list] = {}  # Python ints, so that no sum wraps
    totals: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields")
        setting_str, outcome, count_str = (c.strip() for c in row)
        setting = TomographicSetting(setting_str)
        try:
            count = int(count_str)
        except ValueError:
            raise ValueError(f"line {lineno}: count {count_str!r} is not an integer")
        if count < 0:
            raise ValueError(f"line {lineno}: negative count")
        idx = outcome_index(setting, outcome)
        if setting_str not in accum:
            accum[setting_str], totals[setting_str] = [0] * 2 ** len(setting_str), 0
        totals[setting_str] += count
        if totals[setting_str] > _MAX_COUNT:
            raise ValueError(f"line {lineno}: setting {setting_str}'s total count exceeds 2**63 - 1")
        accum[setting_str][idx] += count
    return [CountRecord(TomographicSetting(s), c) for s, c in accum.items()]


def serialize_counts(records: list[CountRecord]) -> str:
    """Inverse of `parse_counts`; emits every outcome row in index order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        for idx in range(rec.counts.size):
            writer.writerow([rec.setting.bases, outcome_string(rec.setting, idx), int(rec.counts[idx])])
    return out.getvalue()
