import itertools
import json
import math
import re
from collections import Counter, OrderedDict
from functools import lru_cache, reduce

import numpy as np
import pytest

from clustersim import states
from clustersim.classical_bound import MAX_TARGETS, GroupingStrategy, _layer_tables, optimal_group_state
from clustersim.states import RZ, DensityMatrix, LocalBasis, PauliString, PureState, _pauli_kernel
from clustersim.witness import ObservableSum


def random_pure_state(n_qubits: int, rng) -> PureState:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureState.from_amplitudes(amps)


def random_density_matrix(n_qubits: int, rng) -> DensityMatrix:
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(n_qubits, rho / np.trace(rho))


def random_single_qubit_unitary(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ket(*factors) -> np.ndarray:
    """Tensor product of single-qubit vectors given as 2-element sequences."""
    out = np.array([1.0], dtype=complex)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def dense_pauli(word: str) -> np.ndarray:
    """Kronecker product of the word's single-qubit matrices, the oracle for
    the binary Pauli kernel."""
    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
    }
    op = np.array([[1.0]], dtype=complex)
    for c in word:
        op = np.kron(op, mats[c])
    return op


def dense_rotation(state: PureState, gate, qubit: int) -> np.ndarray:
    """RZ(theta) = diag(e^{-i theta/2}, e^{i theta/2}) or RX(theta) as a 2x2
    matrix contracted on the qubit's axis, the oracle for `apply_gate`."""
    c, s = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
    if isinstance(gate, RZ):
        mat = np.diag([np.exp(-1j * gate.theta / 2), np.exp(1j * gate.theta / 2)])
    else:
        mat = np.array([[c, -1j * s], [-1j * s, c]])
    tensor = np.tensordot(mat, state.amplitudes.reshape((2,) * state.n_qubits), axes=([1], [qubit - 1]))
    return np.moveaxis(tensor, 0, qubit - 1).reshape(-1)


def wrong_type(obj) -> str:
    """The whole TypeError text that every state reader raises on `obj`, as a pattern."""
    return "^" + re.escape(f"unsupported state type {type(obj)}") + "$"


_BIT_OF = {"H": 0, "V": 1, "0": 0, "1": 1}


def basis_index(label: str) -> int:
    """Index of a basis label ('HHVV' or '0011'), qubit 1 most significant."""
    idx = 0
    for c in label:
        idx = (idx << 1) | _BIT_OF[c]
    return idx


def amplitude(state: PureState, label: str) -> complex:
    """Amplitude of a computational basis label like 'HHVV' or '0011'."""
    return state.amplitudes[basis_index(label)]


def pure_state_to_json(state: PureState) -> str:
    return json.dumps({"n": state.n_qubits, "re": state.amplitudes.real.tolist(), "im": state.amplitudes.imag.tolist()})


def pure_state_from_json(text: str) -> PureState:
    """The inverse of `pure_state_to_json`."""
    obj = json.loads(text)
    return PureState(obj["n"], np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float))


def observable_to_json(b: ObservableSum) -> str:
    terms = [{"word": t.word, "coeff": t.coefficient} for t in b.terms]
    return json.dumps({"terms": terms, "offset": b.identity_offset})


def observable_from_json(text: str) -> ObservableSum:
    obj = json.loads(text)
    return ObservableSum(tuple(PauliString(t["word"], t["coeff"]) for t in obj["terms"]), obj["offset"])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class MemoSpy(OrderedDict):
    """An empty stand-in for `states._MEMO` that counts, per memoised function
    (key[0]), the lookups that hit and those that missed."""

    def __init__(self):
        super().__init__()
        self.hits, self.misses = Counter(), Counter()

    def pop(self, key, default=None):
        value = super().pop(key, default)
        (self.misses if value is None else self.hits)[key[0]] += 1
        return value


@pytest.fixture
def memo(monkeypatch):
    """The content-keyed memo of `states`, emptied for this test and spied on."""
    spy = MemoSpy()
    monkeypatch.setattr(states, "_MEMO", spy)
    return spy


# --- set-partition oracle for classical_bound ------------------------------


def enumerate_partitions(n: int, max_blocks: int):
    """Yield every set partition of {0..n-1} with at most `max_blocks` blocks,
    in restricted-growth-string lexicographic order."""
    if not 1 <= max_blocks <= n:
        raise ValueError("need 1 <= max_blocks <= n")
    if n > MAX_TARGETS:
        raise ValueError(f"n must be at most {MAX_TARGETS}")

    rgs = [0] * n

    def emit():
        k = max(rgs) + 1
        blocks = [[] for _ in range(k)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        return tuple(tuple(b) for b in blocks)

    def recurse(i: int, current_max: int):
        if i == n:
            yield emit()
            return
        for b in range(min(current_max + 1, max_blocks - 1) + 1):
            rgs[i] = b
            yield from recurse(i + 1, max(current_max, b))

    yield from recurse(1, 0)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the standard recurrence."""

    @lru_cache(maxsize=None)
    def s(n, k):
        if k == 0:
            return 1 if n == 0 else 0
        if k > n:
            return 0
        return k * s(n - 1, k) + s(n - 1, k - 1)

    return s(n, k)


def enumerated_bound(targets: list[PureState], bits: int):
    """Exhaustive classical bound: (value, groups) of the first partition in
    enumeration order that beats every earlier one by more than 1e-15."""
    n = len(targets)
    projectors = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in targets]
    cache: dict[tuple, float] = {}

    def block_value(block: tuple) -> float:
        if block not in cache:
            summed = sum(projectors[i] for i in block)
            cache[block] = float(np.linalg.eigvalsh(summed)[-1])
        return cache[block]

    best_value, best_partition = -1.0, None
    for partition in enumerate_partitions(n, min(2**bits, n)):
        value = sum(block_value(b) for b in partition) / n
        if value > best_value + 1e-15:
            best_value, best_partition = value, partition
    return best_value, best_partition


def whole_bound(targets: list[PureState], bits: int):
    """`classical_bound` without its memo, diagonalising every block sum: the
    sums built by doubling, 128 at a time, and the subset DP over all of them.
    The reference that the bound-pruned solver must equal byte for byte."""
    n = len(targets)
    nblocks = min(1 << min(bits, n), n)
    proj = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in targets]
    low, value = min(n, 7), np.empty(1 << n)
    base = np.zeros((1 << low, *proj[0].shape), dtype=complex)
    for j in range(low):
        np.add(base[: 1 << j], proj[j], out=base[1 << j : 2 << j])
    for high in range(1 << (n - low)):
        chunk = reduce(np.add, [proj[j] for j in range(low, n) if high >> (j - low) & 1], base)
        value[high << low : (high + 1) << low] = np.linalg.eigvalsh(chunk)[:, -1]
    digit = sum((np.arange(1 << n) >> j & 1) * nblocks ** (n - 1 - j) for j in range(n))

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


# --- sequential measurement oracle for the branch engine ----------------------


def tensordot_measure(state: PureState, qubit: int, basis: LocalBasis, select=None, seed=None):
    """`states.measure` written independently of the batched branch engine:
    one `tensordot` per outcome, the outcome drawn with one `rng.random()`.
    Returns (probability, outcome, collapsed amplitudes on the other qubits)."""
    n = state.n_qubits
    tensor = state.amplitudes.reshape((2,) * n)
    branch = [np.tensordot(v.conj(), tensor, axes=([0], [qubit - 1])).reshape(-1) for v in basis.vectors()]
    probs = [float(np.linalg.norm(b) ** 2) for b in branch]
    outcome = int(np.random.default_rng(seed).random() >= probs[0]) if select is None else int(select)
    p = probs[outcome]
    if p < 1e-12:
        raise ValueError(f"selected outcome {outcome} has probability {p:.2e}")
    return p, outcome, PureState(n - 1, branch[outcome] / math.sqrt(p))


def sequential_branch(steps, resource: PureState, branch: str):
    """Measure the listed qubits in order with fixed outcomes, one
    `tensordot_measure` per step; returns the residual state on the
    unmeasured qubits (ascending labels) and the branch probability."""
    labels = list(range(1, resource.n_qubits + 1))
    state, prob = resource, 1.0
    for (qubit, basis), bit in zip(steps, branch):
        pos = labels.index(qubit) + 1
        p, _, state = tensordot_measure(state, pos, basis, select=int(bit))
        prob *= p
        labels.pop(pos - 1)
    return state, prob


def sequential_sample(steps, resource: PureState, seed):
    """Draw the outcome bits one step at a time, as `tensordot_measure` would
    with one `rng.random()` per step; returns the outcome bitstring."""
    rng = np.random.default_rng(seed)
    labels = list(range(1, resource.n_qubits + 1))
    state, bits = resource, ""
    for qubit, basis in steps:
        pos = labels.index(qubit) + 1
        p0 = tensordot_measure(state, pos, basis, select=0)[0]
        bit = int(rng.random() >= p0)
        _, _, state = tensordot_measure(state, pos, basis, select=bit)
        labels.pop(pos - 1)
        bits += str(bit)
    return bits


def bras_reassignment_check(pattern, resource: PureState) -> bool:
    """`mbqc.basis_reassignment_check` by Born probabilities: every outcome of
    all 3^k Pauli settings on the k output qubits, from Kronecker bras, for
    each corrected branch (`sequential_branch` then the dense correction)
    against the target (or, without one, the corrected branch 0...0)."""
    k, m = len(pattern.output_qubits), len(pattern.steps)
    bras = np.concatenate([kron_bras("".join(s)) for s in itertools.product("XYZ", repeat=k)])
    outputs = []
    for bits in itertools.product("01", repeat=m):
        residual = sequential_branch(pattern.steps, resource, "".join(bits))[0].amplitudes
        outputs.append(dense_pauli(pattern.corrections["".join(bits)]) @ residual)
    reference = outputs[0] if pattern.target is None else pattern.target.amplitudes
    p_ref = np.abs(bras @ reference) ** 2
    return all(np.all(np.abs(np.abs(bras @ out) ** 2 - p_ref) <= 1e-9) for out in outputs)


# --- whole-array oracles for the row-blocked kernels --------------------------


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal as float arrays, signed zeros included (array_equal alone takes
    -0.0 == 0.0)."""
    a, b = np.asarray(a).view(float), np.asarray(b).view(float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def whole_dephased(state: PureState, p: float, qubits) -> np.ndarray:
    """`noise.apply_noise`'s dephasing as one whole-array expression per qubit:
    (1 - p) rho + p (s s^T) * rho for Z's signs s."""
    n = state.n_qubits
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for q in qubits:
        s = _pauli_kernel(("Z",), n, (q,))[1][0].real
        rho = (1 - p) * rho + p * (np.outer(s, s) * rho)
    return rho


def kron_bras(bases: str) -> np.ndarray:
    """Bras (2^n, 2^n) of every outcome of a setting like 'XXZZ', row =
    outcome index with qubit 1 most significant, by np.kron."""
    u = np.ones((1, 1), dtype=complex)
    for b in bases:
        u = np.kron(u, np.conj(LocalBasis(b).vectors()))
    return u


def whole_born(state, bases: str) -> np.ndarray:
    """`counts.born_distribution` without its memo, the mixed case as one
    einsum over the whole Kronecker bras."""
    u = kron_bras(bases)
    if isinstance(state, PureState):
        probs = np.abs(u @ state.amplitudes) ** 2
    else:
        probs = np.real(np.einsum("ij,jk,ik->i", u, state.entries, u.conj()))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def whole_branches(steps: tuple, n: int, tensor: np.ndarray):
    """`states._branches` without its memo as one serial contraction over the
    whole (2^m, 2^m) Kronecker bras u, built up front: the reference that the
    row-blocked, pooled tables must equal byte for byte."""
    u = np.ones((1, 1), dtype=complex)
    for _, basis in steps:
        rows = states._bras(basis)
        u = (u[:, None, :, None] * rows[None, :, None, :]).reshape(2 * len(u), -1)
    mixed, measured = tensor.ndim == 2, [q - 1 for q, _ in steps]
    order = measured + [a for a in range(n) if a not in measured]
    t = tensor.reshape((2,) * n * tensor.ndim).transpose(order + [n + a for a in order] * mixed)
    if mixed:  # over row blocks of u, without a whole u.conj()
        d = 2 ** (n - len(steps))
        t = t.reshape(len(u), d, len(u), d)
        blocks = (u[i : i + 64] for i in range(0, len(u), 64))
        t = np.concatenate([np.einsum("ij,jkml,im->ikl", b, t, b.conj()) for b in blocks])
        probs = np.trace(t, axis1=1, axis2=2).real
    else:
        t = u @ t.reshape(len(u), -1)
        probs = (abs(t) ** 2).sum(1)
    norm = np.where(probs > 0, probs if mixed else np.sqrt(probs), 1.0)
    t = t / norm.reshape((-1,) + (1,) * (t.ndim - 1))
    probs = np.clip(probs, 0.0, None)
    return t, probs / probs.sum()


def whole_hermitian_gap(mat: np.ndarray) -> float:
    """max |mat - mat^dagger| over the whole matrix at once."""
    return float(np.max(np.abs(mat - mat.conj().T)))


# --- per-term oracle for the count estimator -----------------------------------


def per_term_expectation(counts, word: str) -> tuple[float, float]:
    """One Pauli word's value and plug-in multinomial sigma from one record's
    counts, sign by sign over the outcomes with the word's support bit-counted
    independently of the Pauli kernel."""
    n = len(word)
    mask = sum(1 << (n - 1 - q) for q, c in enumerate(word) if c != "I")
    signs = np.array([(-1.0) ** bin(i & mask).count("1") for i in range(2**n)])
    total = int(np.sum(counts))
    value = float(np.dot(signs, counts)) / total
    return value, math.sqrt(float(np.dot(counts, (signs - value) ** 2))) / total


def per_term_bound(records, b: ObservableSum) -> tuple[float, float]:
    """Witness value from counts term by term, each term read from the first
    record whose setting covers it, and the per-term sigmas added in
    quadrature: the value oracle, and a sigma that drops the covariance of
    terms read from one record."""
    bound, variance = b.identity_offset, 0.0
    for term in b.terms:
        rec = next(r for r in records if r.setting.covers(term.word))
        value, sigma = per_term_expectation(rec.counts, term.word)
        bound += term.coefficient * value
        variance += (term.coefficient * sigma) ** 2
    return bound, math.sqrt(variance)
