"""Optimal average fidelity achievable with limited classical communication
and no entanglement.

With c bits of communication the preparer can only group the targets into
at most 2^c blocks and send the block label; the receiver then prepares the
best fixed state per block, worth the top eigenvalue of the block's summed
projectors. The best grouping comes from the set-partition dynamic programme
over target subsets (Björklund, Husfeldt & Koivisto, SIAM J. Comput. 2009).
A solve is memoised by block count and amplitudes (`states._memoised`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .states import PureState, _memoised, _trusted

MAX_TARGETS = 12  # 12 targets in 4 blocks solve in about 25 ms (2 vCPU, numpy 2.4)


@dataclass(frozen=True)
class GroupingStrategy:
    """One grouping of target indices with its optimal per-block states."""

    groups: tuple  # tuple of tuples of 0-based target indices
    prepared_states: tuple  # one PureState per group
    average_fidelity: float


def optimal_group_state(states: list[PureState]):
    """Best single state for a group of targets: the top eigenvector of the
    mean projector. Returns (state, mean fidelity = top eigenvalue)."""
    if not states:
        raise ValueError("group must be nonempty")
    dim = states[0].amplitudes.size
    if any(s.amplitudes.size != dim for s in states):
        raise ValueError("states must have equal dimension")
    mean_proj = sum(
        np.outer(s.amplitudes, s.amplitudes.conj()) for s in states
    ) / len(states)
    vals, vecs = np.linalg.eigh(mean_proj)
    return PureState.from_amplitudes(vecs[:, -1]), float(vals[-1])


@lru_cache(maxsize=None)
def _layer_tables(m: int) -> list:
    """Chunks (sets of one size, row by row every subset of a set that holds
    its lowest element) of int32 masks over m elements, at most 2048 blocks each."""
    masks = np.arange(1, 1 << m, dtype=np.int32)
    size = sum((masks >> j) & 1 for j in range(m))
    chunks = []
    for p in range(1, m + 1):
        sets = masks[size == p]
        member = np.nonzero((sets[:, None] >> np.arange(m)) & 1)[1].reshape(-1, p)
        weight = (1 << member).astype(np.int32)
        others = (np.arange(1 << (p - 1))[:, None] >> np.arange(p - 1) & 1).astype(np.int32)
        blocks = weight[:, :1] + weight[:, 1:] @ others.T
        step = max(1, 2048 >> (p - 1))
        chunks += [(sets[i : i + step], blocks[i : i + step]) for i in range(0, len(sets), step)]
    return chunks


def classical_bound(targets: list[PureState], bits: int):
    """Maximize average fidelity over all groupings into at most 2^bits
    blocks. Returns (optimal value, one argmax GroupingStrategy); among optima
    within 1e-12, the first grouping in restricted-growth-string order wins."""
    if not isinstance(bits, (int, np.integer)) or bits < 0:
        raise ValueError("bits must be a nonnegative integer")
    n = len(targets)
    if not 1 <= n <= MAX_TARGETS:
        raise ValueError(f"need 1 to {MAX_TARGETS} targets")
    if len({s.amplitudes.size for s in targets}) > 1:
        raise ValueError("targets must have equal dimension")
    return _solve(min(1 << min(int(bits), n), n), np.stack([s.amplitudes for s in targets]))


@_memoised
def _solve(nblocks: int, amps: np.ndarray):
    """`classical_bound` over at most `nblocks` blocks of the rows' targets."""
    n, targets = len(amps), [_trusted(PureState, amps.shape[1].bit_length() - 1, a) for a in amps]

    # value[S]: summed fidelity of the best state for the targets in bit mask S,
    # from block sums built by doubling, 2^low at a time to bound memory.
    proj = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in targets]
    low, value = min(n, 7), np.empty(1 << n)
    base = np.zeros((1 << low, *proj[0].shape), dtype=complex)
    for j in range(low):
        np.add(base[: 1 << j], proj[j], out=base[1 << j : 2 << j])
    for high in range(1 << (n - low)):
        chunk = reduce(np.add, [proj[j] for j in range(low, n) if high >> (j - low) & 1], base)
        value[high << low : (high + 1) << low] = np.linalg.eigvalsh(chunk)[:, -1]
    # digit[S]: S's targets as base-nblocks digits 1, read from target 0.
    digit = sum((np.arange(1 << n) >> j & 1) * nblocks ** (n - 1 - j) for j in range(n))

    # The k-th last block holds the lowest target left: it has label nblocks-k
    # and what is left for it lies in targets nblocks-k .. n-1. layers[k-1][.]
    # [S >> nblocks-k]: over at most k blocks of S, the best total, the least
    # restricted-growth number attaining it, its first block.
    full, shift = (1 << n) - 1, nblocks - 1
    top = [(np.array([full]), (1 | np.arange(1 << (n - 1), dtype=np.int32) << 1)[None])]
    layers = [(value[:: 1 << shift], shift * digit[:: 1 << shift], None)]
    for k in range(2, nblocks + 1):
        shift = nblocks - k
        own, own_digit = value[:: 1 << shift], shift * digit[:: 1 << shift]
        below_best, below_key, _ = layers[-1]
        best, key, first = (np.zeros(own.size, t) for t in (float, np.int64, np.int32))
        for sets, blocks in _layer_tables(n - shift) if k < nblocks else top:
            rest = (sets[:, None] ^ blocks) >> 1
            score = own[blocks] + below_best[rest]
            rgs = own_digit[blocks] + below_key[rest]
            best[sets] = score.max(axis=1)
            rgs[score < best[sets, None] - 1e-12] = np.iinfo(np.int64).max
            pick = rgs.argmin(axis=1)[:, None]
            key[sets] = np.take_along_axis(rgs, pick, 1)[:, 0]
            first[sets] = np.take_along_axis(blocks, pick, 1)[:, 0]
        layers.append((best, key, first))

    groups, rest, k = [], full, nblocks
    while rest:
        block = rest if k == 1 else int(layers[k - 1][2][rest >> (nblocks - k)]) << (nblocks - k)
        groups.append(tuple(i for i in range(n) if block >> i & 1))
        rest, k = rest ^ block, k - 1

    total = sum(float(value[sum(1 << i for i in g)]) for g in groups) / n
    prepared = tuple(optimal_group_state([targets[i] for i in g])[0] for g in groups)
    return total, GroupingStrategy(tuple(groups), prepared, total)


def margin_report(measured_mean: float, measured_err: float, bound: float) -> float:
    """Signed distance of a measured average fidelity above the classical
    bound, in units of the quoted standard deviation."""
    if not (np.isfinite(measured_mean) and 0 < measured_err < np.inf):  # NaN fails both
        raise ValueError("measured mean must be finite and its error finite and positive")
    return (measured_mean - bound) / measured_err
