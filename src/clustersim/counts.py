"""Coincidence-count records per tomographic setting: synthesis, ingestion,
outcome probabilities, and Pauli expectations and witness bounds with
one multinomial variance per record, covariance included.

Outcome labels per local basis: Z -> H/V, X -> +/-, Y -> R/L, with the
first label (bit 0) being the +1 eigenvector of the corresponding Pauli
operator. Outcomes are indexed with qubit 1 as the most significant bit.

A Born vector is the probs of the all-qubit branch table of its setting
(`states._branches`), so it is computed once per (state, setting) and is one
memo entry with that table. Counts are int64; a count or a setting's total
past 2**63 - 1 is an error, not a wrap. CSV errors name their line.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .noise import _field
from .states import LocalBasis, PauliString, _array, _branches, _pauli_kernel
from .witness import ObservableSum, TomographicSetting, required_settings

_OUTCOME_LETTERS = {"Z": "HV", "X": "+-", "Y": "RL"}
_MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one tomographic setting, one per outcome."""

    setting: TomographicSetting
    counts: np.ndarray
    total: int = field(init=False)  # the sum of the counts, a Python int

    def __post_init__(self):
        try:
            counts = np.array(self.counts, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"setting {self.setting.bases}: counts must lie in 0..2**63 - 1") from None
        if counts.shape != (2 ** len(self.setting.bases),):
            raise ValueError("counts length must be 2^n for the setting")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        total = sum(counts.tolist())  # Python ints: an int64 sum would wrap
        if total > _MAX_COUNT:
            raise ValueError(f"setting {self.setting.bases}: total count exceeds 2**63 - 1")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)


def outcome_string(setting: TomographicSetting, index: int) -> str:
    """Label like '++HH' for an outcome index under the given setting."""
    labels = _labels(setting.bases)
    if not 0 <= index < len(labels):
        raise ValueError(f"outcome index {index} out of range 0..{len(labels) - 1}")
    return labels[index]


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
    basis (`states.LocalBasis`, outcome bit 0 the +1 eigenvector): the probs
    of the memoised all-qubit branch table, `states._branches`."""
    tensor, n = _array(state), state.n_qubits
    if len(setting.bases) != n:
        raise ValueError(f"setting {setting.bases!r} does not match a register of {n} qubits")
    steps = tuple((q, LocalBasis(b)) for q, b in enumerate(setting.bases, 1))
    return _branches(steps, n, tensor)[1].copy()


def sample_counts(state, setting: TomographicSetting, total: int, seed: int) -> CountRecord:
    """Multinomial draw of `total` coincidence events from the Born
    distribution; deterministic given the seed."""
    _check_total(total)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total, born_distribution(state, setting))
    return CountRecord(setting, counts)


def exact_record(state, setting: TomographicSetting, total: int = 10**9) -> CountRecord:
    """Infinite-statistics stand-in: exact Born probabilities times `total`,
    rounded to Python ints, so that a count past 2**63 - 1 is a range error."""
    _check_total(total)
    probs = born_distribution(state, setting)
    return CountRecord(setting, [int(c) for c in np.rint(probs * total).tolist()])


def _check_total(total: int) -> None:
    if total < 1:
        raise ValueError("total must be at least 1")
    if total > _MAX_COUNT:
        raise ValueError(f"total {total} exceeds 2**63 - 1")


class ZeroCountsError(ValueError):
    """A record that an estimate needs has zero total counts."""


def _check_counted(rec: CountRecord) -> None:
    if rec.total == 0:
        raise ZeroCountsError(f"setting {rec.setting.bases} has zero total counts")


def probabilities(rec: CountRecord) -> np.ndarray:
    """Counts normalized by the total number of events."""
    _check_counted(rec)
    return rec.counts / rec.total


def expectation_from_counts(rec: CountRecord, word) -> tuple[float, float]:
    """Pauli expectation and its standard error from counts: `_estimate` of
    one term. The word must be the record's setting with letters replaced by I.
    """
    word_str = getattr(word, "word", word)
    if not rec.setting.covers(word_str):
        raise ValueError(f"word {word_str!r} incompatible with setting {rec.setting.bases}")
    return _estimate([rec], ObservableSum((PauliString(word_str),)))


def witness_from_counts(records: list[CountRecord], b: ObservableSum) -> tuple[float, float]:
    """Fidelity lower bound and its error from measured counts: `_estimate`
    once records sharing a setting are summed, in first-appearance order. The
    sums are exact Python ints, so one past 2**63 - 1 is an error, not a wrap."""
    merged: dict[str, tuple] = {}
    for rec in records:
        setting, summed = merged.get(rec.setting.bases, (rec.setting, 0))
        merged[rec.setting.bases] = setting, summed + rec.counts.astype(object)
    return _estimate([CountRecord(s, c) for s, c in merged.values()], b)


def _estimate(records: list[CountRecord], b: ObservableSum) -> tuple[float, float]:
    """Value and standard error of b's weighted Pauli words plus its offset.
    Each term reads the first record whose setting covers it. A record's terms
    fold into one score per outcome, sum(coefficient * sign on the support),
    so their covariance is kept: the record adds the score's mean to the value
    and its multinomial variance, sum(counts * (score - mean)**2) / N**2."""
    read: dict[str, tuple[CountRecord, list]] = {}
    for term in b.terms:
        rec = next((r for r in records if r.setting.covers(term.word)), None)
        if rec is None:
            needed = [s.bases for s in required_settings(b)]
            raise ValueError(f"no record covers term {term.word!r}; settings needed: {needed}")
        _check_counted(rec)
        read.setdefault(rec.setting.bases, (rec, []))[1].append(term)
    value, variance = b.identity_offset, 0.0
    for bases, (rec, terms) in read.items():
        supports = tuple(t.word.translate(str.maketrans("XY", "ZZ")) for t in terms)
        signs = _pauli_kernel(supports, len(bases))[1].real
        score = np.array([t.coefficient for t in terms]) @ signs
        mean = float(np.dot(score, rec.counts)) / rec.total
        value += mean
        variance += float(np.dot(rec.counts, (score - mean) ** 2)) / rec.total**2
    return value, math.sqrt(variance)


CSV_HEADER = ["setting", "outcome", "count"]


def parse_counts(text: str) -> list[CountRecord]:
    """Parse CSV with header `setting,outcome,count`; rows sharing a setting
    are grouped (first-appearance order) and missing outcomes default to 0.
    A row that takes its setting's total past 2**63 - 1 is an error."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows or [c.strip() for c in rows[0]] != CSV_HEADER:
        raise ValueError("expected header 'setting,outcome,count'")
    accum, totals = {}, {}  # setting -> (TomographicSetting, label -> index, counts), and its total; Python ints
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != 3:
                raise ValueError("expected 3 fields")
            setting_str, outcome, count_str = (c.strip() for c in row)
            if setting_str not in accum:  # one setting and label map per distinct setting
                setting, labels = TomographicSetting(setting_str), _labels(setting_str)
                accum[setting_str] = setting, dict(zip(labels, itertools.count())), [0] * len(labels)
            setting, index, counts = accum[setting_str]
            count = _field(int, count_str, "count {!r} is not an integer")
            if count < 0:
                raise ValueError("negative count")
            idx = index[outcome] if outcome in index else outcome_index(setting, outcome)  # which names the fault
            totals[setting_str] = totals.get(setting_str, 0) + count
            if totals[setting_str] > _MAX_COUNT:
                raise ValueError(f"setting {setting_str}'s total count exceeds 2**63 - 1")
            counts[idx] += count
        except ValueError as exc:  # every row error names its line
            raise ValueError(f"line {lineno}: {exc}") from None
    return [CountRecord(setting, counts) for setting, _, counts in accum.values()]


@functools.lru_cache(maxsize=64)
def _labels(bases: str) -> tuple:
    """A setting's outcome labels in index order, the one label table."""
    return tuple(map("".join, itertools.product(*(_OUTCOME_LETTERS[b] for b in bases))))


def serialize_counts(records: list[CountRecord]) -> str:
    """Inverse of `parse_counts`; emits every outcome row in index order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerows(zip(itertools.repeat(rec.setting.bases), _labels(rec.setting.bases), rec.counts.tolist()))
    return out.getvalue()
