"""Dense pure-state and density-matrix simulation of small qubit registers.

Conventions used throughout the package:
  * Qubit 1 is the most significant bit of the amplitude index, so the
    Pauli word "ZZII" reads left-to-right as Z on qubits 1 and 2.
  * Every operator (Pauli word, RZ, RX, CZ) is an index flip plus phases, never a
    matrix. A word's binary form (x_mask, z_mask, #Y) maps index i to i ^ x_mask with
    phase i^#Y (-1)^parity(i & z_mask), bit n - q of x_mask (z_mask) set where qubit q
    carries X or Y (Z or Y); RZ(t), RX(t) = cos(t/2) - i sin(t/2) P, P = Z, X; CZ is a sign mask.
  * Basis label 0 is |H> (horizontal polarization), 1 is |V>.
  * Measuring in X, Y or Z, outcome bit 0 is the +1 eigenvector (|H>, |+>,
    |R> = (|H> + i|V>)/sqrt2), as counts labels them H/V, +/-, R/L.
  * All state comparisons are fidelity-based; global phase is never fixed.

Local measurements have one contraction, `_branches`: every outcome branch of a list of
single-qubit measurements on a pure or density state at once, from the steps' Kronecker
bras (`_bras`) 64 rows at a time, large density tables on `_pool` (bits independent of its
workers). Every qubit measured in label order gives the Born vector
(`counts.born_distribution`); on a density matrix at n = 7..10 its Z steps index diagonal
blocks, bit for bit (`_EINSUM_BUFFER`). `_branch` picks one branch, `measure` is the
one-step call and `mbqc` runs patterns on it. A branch less likely than _IMPOSSIBLE is
never taken (`_branch`, `mbqc`); tables and Born vectors keep it. One single-threaded
memo, `_memoised`, holds them, Schmidt spectra, `mbqc`'s tables, dominance and
`classical_bound`'s solves: read-only, keyed by the arguments and a digest of the state
read in place, LRU in 1 MiB (or one larger entry), an entry >= 4 KiB. Callers get copies.

The public PureState and DensityMatrix constructors (so `from_amplitudes` and
all user input) check the norm, or Hermiticity, unit trace and positivity (by
Cholesky), each written so that NaN fails it; states built from valid ones
skip them (`_trusted`). Every state argument is read by `_array` (a wrong type
is its TypeError), a Pauli word by `PauliString`, qubit labels by `_check_qubits`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
PSD_ATOL = 1e-8
_ROW_BLOCK = 64  # rows per block where a whole 4^n temporary would be 16 MiB at n = 10
_IMPOSSIBLE = 1e-12  # a branch less likely than this is never taken
_EINSUM_BUFFER = 8192  # terms einsum sums from 0 per inner loop: numpy's fixed buffer, not np.setbufsize's


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over n qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be nonnegative")
        amps = np.array(self.amplitudes, dtype=complex, order="C")
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.2e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "PureState":
        """Build a state from an unnormalized amplitude vector."""
        amps = np.asarray(amps, dtype=complex)
        n = int(round(math.log2(amps.size)))
        if 2**n != amps.size:
            raise ValueError("amplitude length must be a power of two")
        with np.errstate(over="ignore"):  # a norm past the float range is taken again below
            norm = float(np.linalg.norm(amps))
        if norm == math.inf and np.isfinite(amps).all():  # scale the largest part to 1
            amps = amps / max(np.abs(amps.real).max(), np.abs(amps.imag).max())
            norm = float(np.linalg.norm(amps))
        if not 1e-12 <= norm < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm:.2e}")
        return cls(n, amps / norm)

    def to_density(self) -> "DensityMatrix":
        return _trusted(DensityMatrix, self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))

    def tensor(self, other: "PureState") -> "PureState":
        amps = np.kron(self.amplitudes, _array(other, PureState))
        return PureState(self.n_qubits + other.n_qubits, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on n qubits."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 2**self.n_qubits
        mat = np.array(self.entries, dtype=complex, order="C")
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if any(not np.max(np.abs(mat[i : i + _ROW_BLOCK] - mat[:, i : i + _ROW_BLOCK].conj().T)) <= NORM_ATOL
               for i in range(0, dim, _ROW_BLOCK)):
            raise ValueError("matrix is not Hermitian")
        if not abs(np.trace(mat).real - 1.0) <= NORM_ATOL:
            raise ValueError("trace is not 1")
        diagonal, mat.flat[:: dim + 1] = mat.diagonal().copy(), mat.diagonal() + PSD_ATOL  # mat is our own copy
        try:  # every eigenvalue >= -PSD_ATOL, as a Cholesky factor of mat + PSD_ATOL I exists
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise ValueError("matrix has a significantly negative eigenvalue") from None
        mat.flat[:: dim + 1] = diagonal  # the entries keep their bits
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        return cls(n_qubits, np.eye(dim, dtype=complex) / dim)


def _trusted(cls, n_qubits: int, data: np.ndarray):
    """`cls(n_qubits, data)` without the checks or a copy, for a fresh complex
    C-order array valid by construction (module docstring); made read-only."""
    data.flags.writeable = False
    state = object.__new__(cls)
    state.__dict__.update(zip(cls.__dataclass_fields__, (n_qubits, data)))
    return state


@dataclass(frozen=True)
class PauliString:
    """A Pauli word like 'ZZII' with a real coefficient."""

    word: str
    coefficient: float = 1.0

    def __post_init__(self):
        if not self.word or any(c not in "IXYZ" for c in self.word):
            raise ValueError(f"invalid Pauli word {self.word!r}")


@dataclass(frozen=True)
class LocalBasis:
    """A single-qubit measurement basis LocalBasis(kind, theta), written kind(t).

    planar_std(t) is {(|0> + e^{-it}|1>)/sqrt2, (|0> - e^{-it}|1>)/sqrt2};
    planar_had(t) is the same with |0>,|1> replaced by |+>,|->.
    Outcome bit 0 corresponds to the first vector. X, Y and Z are exact, with
    the +1 eigenvector first: X = planar_std(0), Y = planar_std(-pi/2) (while
    planar_std(pi/2) is Y with its outcomes swapped), Z = planar_had(0).
    The only place single-qubit basis vectors are written down.
    """

    kind: str
    theta: float = 0.0

    _KINDS = ("Z", "X", "Y", "planar_std", "planar_had")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The ordered pair of basis vectors (outcome 0, outcome 1)."""
        s = 1 / math.sqrt(2)
        pauli = {"Z": ((1, 0), (0, 1)), "X": ((s, s), (s, -s)), "Y": ((s, 1j * s), (s, -1j * s))}
        if self.kind in pauli:
            return tuple(np.array(v, dtype=complex) for v in pauli[self.kind])
        phase = np.exp(-1j * self.theta)
        zero, one = LocalBasis("X" if self.kind == "planar_had" else "Z").vectors()
        return (zero + phase * one) / math.sqrt(2), (zero - phase * one) / math.sqrt(2)


# --- local measurements -------------------------------------------------


_MEMO: OrderedDict = OrderedDict()  # key -> (value, size), oldest first; `held`: the sizes' sum, kept by one thread
_MEMO_BYTES = 1 << 20  # an entry's size is its arrays' bytes, at least 4 KiB


def _memoised(compute):
    """`compute(*args, tensor)` (a tuple) memoised in `_MEMO` under (its name,
    the hashable args, the C-contiguous tensor's shape and SHA-256 digest read
    in place): its arrays made read-only, shared by all callers; a miss evicts
    oldest-first. Single-threaded: the byte total is held on the dict with no lock
    (a dict swapped in keeps its own; an emptied one restarts at 0). `__wrapped__` skips it."""
    @functools.wraps(compute)
    def lookup(*args):
        memo = _MEMO
        key = (compute.__name__, *args[:-1], args[-1].shape, hashlib.sha256(args[-1]).digest())
        entry = memo.pop(key, None)
        if entry is None:
            value = compute(*args)
            arrays = [a for a in value if isinstance(a, np.ndarray)]
            for a in arrays:
                a.flags.writeable = False
            entry = value, max(4096, sum(a.nbytes for a in arrays))
            held = (getattr(memo, "held", 0) if memo else 0) + entry[1]
            while held > _MEMO_BYTES and memo:
                held -= memo.popitem(last=False)[1][1]
            memo.held = held
        memo[key] = entry
        return entry[0]

    return lookup


@functools.lru_cache(maxsize=64)
def _bras(basis: LocalBasis) -> np.ndarray:
    """conj(basis.vectors()) as read-only rows (2, 2), built once per basis."""
    rows = np.conj(basis.vectors())
    rows.flags.writeable = False
    return rows


_POOL = None, None  # (pid, its ThreadPoolExecutor), made by `_pool`


def _pool():
    """This process's thread pool, one worker per usable CPU, made on first use (a forked child makes its own)."""
    global _POOL
    import os
    from concurrent.futures import ThreadPoolExecutor

    if _POOL[0] != os.getpid():
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        _POOL = os.getpid(), ThreadPoolExecutor(workers)
    return _POOL[1]


@_memoised
def _branches(steps: tuple, n: int, tensor: np.ndarray):
    """Every outcome branch of the measurements, a tuple of (qubit, LocalBasis) pairs,
    on amplitudes (2^n,) or a density matrix (2^n, 2^n): (states, probs), per branch
    (first step most significant) its state on the other qubits in label order over
    its own raw norm, and its probability, clipped at 0 and normalised to sum 1. Row
    block b of the bras (`_bras`, the first `head` steps fixed at b's bits, multiplied
    out left to right: np.kron's values) applies to the measured axes, moved first, as
    one matmul (pure) or einsum (density). An all-qubit density table in label order at
    m = 7..10 leaves its Z steps out: pattern a reads rho's block a in the whole table's
    einsum chunks, skipping only exact zeros. Over 4 units of 7+ free steps: `_pool()`."""
    mixed, measured, m = tensor.ndim == 2, [q - 1 for q, _ in steps], len(steps)
    order = measured + [a for a in range(n) if a not in measured]
    t = tensor.reshape((2,) * n * tensor.ndim).transpose(order + [n + a for a in order] * mixed)
    t = t.reshape(2**m, 2 ** (n - m), 2**m, -1) if mixed else t.reshape(2**m, -1)
    zk = [k for k, (_, b) in enumerate(steps) if mixed and 6 < m <= 10 and b.kind == "Z" and order == list(range(m))]
    zk = zk[len(zk) == m - 1 :]  # one free step would leave a 2 x 2 einsum, which sums in another order
    rows, head = [_bras(b) for k, (_, b) in enumerate(steps) if k not in zk], max(m - len(zk) - 6, 0)
    if zk:  # blocks[a]: the table rows of Z pattern a, read in chunks of the g that share an einsum buffer
        blocks = np.argsort(np.arange(2**m) & sum(1 << m - 1 - k for k in zk), kind="stable").reshape(2 ** len(zk), -1)

    def block(b):  # numpy only, on the arrays above: it may run on a worker
        u = np.ones((1, 1), dtype=complex)
        for k, r in enumerate(rows):
            r = r[(b >> (head - 1 - k)) & 1][None] if k < head else r
            u = (u[:, None, :, None] * r[None, :, None, :]).reshape(len(r) * len(u), -1)
        if not zk:
            return np.einsum("ij,jkml,im->ikl", u, t, u.conj()) if mixed else u @ t
        c, v, g = blocks[b >> head], u.conj(), int(np.searchsorted(blocks[0], _EINSUM_BUFFER >> m))
        return sum(np.einsum("ij,jm,im->i", u[:, i : i + g], tensor[c[i : i + g, None], c], v)
                   for i in range(0, len(c), g))

    units = range(2 ** (len(zk) + head))  # unit b: Z pattern b >> head, bras rows from b's last `head` bits
    t = np.concatenate(list((_pool().map if mixed and head and len(units) > 4 else map)(block, units)))
    t = t[np.argsort(blocks, axis=None)].reshape(-1, 1, 1) if zk else t
    probs = np.trace(t, axis1=1, axis2=2).real if mixed else (abs(t) ** 2).sum(1)
    norm = np.where(probs > 0, probs if mixed else np.sqrt(probs), 1.0)
    t = t / norm.reshape((-1,) + (1,) * (t.ndim - 1))
    probs = np.clip(probs, 0.0, None)
    return t, probs / probs.sum()


def _branch(table, bits=None, seed=None):
    """One branch of a table (states, probs) of m measurements, as `_branches`
    returns: (bitstring, its read-only state, probability). `bits` is a 0/1
    string, used as is, or a sequence of bits; without it, bit k is drawn in
    step order with one `rng.random()` r as r (p0 + p1) >= p0, p0 and p1 the
    probabilities of its two continuations. Below _IMPOSSIBLE a branch is an error."""
    states, probs = table
    m = probs.size.bit_length() - 1
    if bits is None:
        rng, bits = np.random.default_rng(seed), ""
        for k in range(1, m + 1):
            i = 2 * int("0" + bits, 2)
            p0, p1 = probs.reshape(2**k, -1)[i : i + 2].sum(1)
            bits += "01"[int(rng.random() * (p0 + p1) >= p0)]
    else:
        bits = bits if isinstance(bits, str) else "".join(str(int(b)) for b in bits)
        if set(bits) - set("01"):
            raise ValueError("outcome bits must be 0 or 1")
        if len(bits) != m:
            raise ValueError(f"{m} outcome bits expected, got {bits!r}")
    index = int("0" + bits, 2)
    if probs[index] < _IMPOSSIBLE:
        raise ValueError(f"branch {bits} has probability ~0")
    return bits, states[index], float(probs[index])


# --- gate descriptors ---------------------------------------------------


@dataclass(frozen=True)
class RZ:
    """exp(-i theta Z / 2)."""

    theta: float


@dataclass(frozen=True)
class RX:
    """exp(-i theta X / 2)."""

    theta: float


class CZ:
    """Controlled-Z: |j>|k> -> (-1)^{jk} |j>|k>."""


# --- Pauli words ---------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _pauli_kernel(words: tuple, n: int, qubits: tuple | None = None):
    """Binary form of equal-length Pauli words on the listed qubits (default
    1..n): read-only (flip, phase) of shape (len(words), 2^n), P_w|i> =
    phase[w, i] |flip[w, i]>, with flip = i ^ x_mask and phase = i^(#Y + 2
    parity(i & z_mask)), parity by XOR-folding. Cached, as words recur."""
    masks = []
    for word in words:  # each read by `PauliString` or `mbqc.MeasurementPattern`, or built by the library
        x = z = 0
        for letter, q in zip(word, qubits or range(1, n + 1)):
            x |= (letter in "XY") << (n - q)
            z |= (letter in "YZ") << (n - q)
        masks.append((x, z, word.count("Y")))
    x, z, n_y = np.array(masks).T[:, :, None]
    idx = np.arange(2**n)
    v, shift = idx & z, 1
    while shift < n:
        v ^= v >> shift
        shift <<= 1
    flip, phase = idx ^ x, np.array([1, 1j, -1, -1j])[(2 * v + n_y) & 3]
    flip.flags.writeable = phase.flags.writeable = False
    return flip, phase


@functools.lru_cache(maxsize=64)
def _words(alphabets: tuple) -> tuple:
    """Every word with letter k from alphabets[k], in their order: branch labels, Pauli words, outcome labels."""
    return tuple(map("".join, itertools.product(*alphabets)))


# --- named resource states ---------------------------------------------


def cluster4() -> PureState:
    """The four-qubit cluster state with amplitudes +1/2 on HHHH, HHVV, VVHH
    and -1/2 on VVVV (basis indices 0, 3, 12 and 15)."""
    amps = np.zeros(16, dtype=complex)
    amps[[0, 3, 12, 15]] = 0.5, 0.5, 0.5, -0.5
    return PureState(4, amps)


def named_state(name: str) -> PureState:
    """Well-known reference states: ghz4, w4, dicke4, plus, minus, r, l, h, v."""
    s2 = 1 / math.sqrt(2)
    four = {  # the basis indices of the nonzero amplitudes, and their value
        "ghz4": ((0, 15), s2),
        "w4": ((1, 2, 4, 8), 0.5),
        "dicke4": ((3, 5, 6, 9, 10, 12), 1 / math.sqrt(6)),
    }
    if name in four:
        amps = np.zeros(16, dtype=complex)
        amps[list(four[name][0])] = four[name][1]
        return PureState(4, amps)
    single = {"h": ("Z", 0), "v": ("Z", 1), "plus": ("X", 0), "minus": ("X", 1), "r": ("Y", 0), "l": ("Y", 1)}
    if name in single:
        kind, bit = single[name]
        return PureState(1, LocalBasis(kind).vectors()[bit])
    raise ValueError(f"unknown state name {name!r}")


# --- operations ---------------------------------------------------------


def _check_qubits(qubits, n: int) -> None:
    """Raise on a repeated qubit label, then on the first outside 1..n."""
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubit labels must be distinct")
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"qubit label {q} out of range 1..{n}")


def apply_gate(state: PureState, gate, qubits) -> PureState:
    """Apply RZ(t), RX(t), the class CZ or a Pauli word (a str) to the given qubit labels (1-based)."""
    amps, n, qubits = np.array(_array(state, PureState)), state.n_qubits, list(qubits)
    _check_qubits(qubits, n)
    if isinstance(gate, (RZ, RX)):
        if len(qubits) != 1:
            raise ValueError("rotation gates act on exactly one qubit")
        (flip,), (phase,) = _pauli_kernel(("Z" if isinstance(gate, RZ) else "X",), n, tuple(qubits))
        amps = math.cos(gate.theta / 2) * amps - 1j * math.sin(gate.theta / 2) * (phase * amps)[flip]
    elif gate is CZ:
        if len(qubits) != 2:
            raise ValueError("CZ takes exactly two qubit labels")
        idx = np.arange(amps.size)
        amps *= 1 - 2 * ((idx >> (n - qubits[0])) & (idx >> (n - qubits[1])) & 1)
    elif isinstance(gate, str):
        word = PauliString(gate).word
        if len(word) != len(qubits):
            raise ValueError("Pauli word length must match qubit list")
        (flip,), (phase,) = _pauli_kernel((word,), n, tuple(qubits))
        amps = (phase * amps)[flip]
    else:
        raise ValueError(f"unknown gate of type {type(gate).__name__}")
    return _trusted(PureState, n, amps)


def _array(state, kinds=(PureState, DensityMatrix)) -> np.ndarray:
    """The amplitudes (ndim 1) or entries (ndim 2) of a state of one of `kinds`."""
    if not isinstance(state, kinds):
        raise TypeError(f"unsupported state type {type(state)}")
    return state.amplitudes if isinstance(state, PureState) else state.entries


def fidelity(a, target: PureState) -> float:
    """<target| a |target>; for a pure state, the squared overlap magnitude."""
    arr, t = _array(a), _array(target, PureState)
    if a.n_qubits != target.n_qubits:
        raise ValueError("qubit counts do not match")
    if arr.ndim == 1:
        return float(abs(np.vdot(t, arr)) ** 2)
    return float(np.real(np.vdot(t, arr @ t)))


def pauli_expectation(state, p) -> float:
    """Expectation value of a Pauli string (coefficient included), in O(2^n):
    Tr(P rho) = sum_i phase[i] rho[i, flip[i]] on a density matrix."""
    p = p if isinstance(p, PauliString) else PauliString(p)
    arr = _array(state)
    if len(p.word) != state.n_qubits:
        raise ValueError("word length does not match register")
    (flip,), (phase,) = _pauli_kernel((p.word,), state.n_qubits)
    if arr.ndim == 1:
        return p.coefficient * float(np.real(np.vdot(arr, (phase * arr)[flip])))
    return p.coefficient * float(np.real(np.dot(phase, arr[np.arange(flip.size), flip])))


def measure(state: PureState, qubit: int, basis: LocalBasis, select=None, seed=None):
    """Measure one qubit and remove it from the register.

    `select` fixes the outcome bit (0 or 1); when None, the outcome is drawn
    from the Born distribution using `seed`. Returns (probability, outcome,
    collapsed state on the remaining qubits, in their original order).
    """
    psi = _array(state, PureState)
    _check_qubits((qubit,), state.n_qubits)
    bits = None if select is None else (select,)
    outcome, amps, p = _branch(_branches(((qubit, basis),), state.n_qubits, psi), bits, seed)
    return p, int(outcome), _trusted(PureState, state.n_qubits - 1, np.array(amps))


def schmidt_coefficients(state: PureState, partition) -> np.ndarray:
    """Descending Schmidt coefficients for a bipartition given by qubit labels (a copy)."""
    amps, n, part = _array(state, PureState), state.n_qubits, sorted(set(partition))
    if not part or len(part) >= n:
        raise ValueError("partition must be a nonempty proper subset")
    _check_qubits(part, n)
    return _schmidt(tuple(part), n, amps)[0].copy()


@_memoised
def _schmidt(part: tuple, n: int, amps: np.ndarray):
    """(descending Schmidt coefficients,) of the cut between `part` and the rest."""
    order = [q - 1 for q in part] + [a for a in range(n) if a + 1 not in part]
    mat = amps.reshape((2,) * n).transpose(order).reshape(2 ** len(part), -1)
    return (np.linalg.svd(mat, compute_uv=False),)
