"""The binary (x, z) Pauli kernel at every site that applies a Pauli word,
checked against dense Kronecker products on random words and states. The
`dense` site is the one operator built from Pauli words, the dominance
operator of `verify_dominance`, checked bit for bit against the Kronecker sum."""

import numpy as np
import pytest

from clustersim.counts import CountRecord, expectation_from_counts
from clustersim.noise import NoiseSpec, apply_noise
from clustersim.states import CZ, PauliString, apply_gate, cluster4, named_state, pauli_expectation
from clustersim.witness import ObservableSum, TomographicSetting, build_b2, build_b4, verify_dominance
from conftest import dense_pauli, random_density_matrix, random_pure_state

SITES = ["pure", "mixed", "apply_gate", "cz", "dephase", "counts", "dense"]


def random_word(rng, n: int, letters: str = "IXYZ") -> str:
    return "".join(rng.choice(list(letters), size=n))


def dominance_by_kron(b: ObservableSum, target) -> float:
    """Smallest eigenvalue of |t><t| - (offset I + sum of c dense_pauli(w)),
    the terms added in order."""
    op = b.identity_offset * np.eye(2**b.n_qubits, dtype=complex)
    for term in b.terms:
        op += term.coefficient * dense_pauli(term.word)
    t = target.amplitudes
    return float(np.linalg.eigvalsh(np.outer(t, t.conj()) - op)[0])


def cz_by_loop(amps: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    """CZ as a loop over basis indices, negating those with both bits set."""
    out = np.array(amps)
    for i in range(out.size):
        if (i >> (n - q1)) & 1 and (i >> (n - q2)) & 1:
            out[i] = -out[i]
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("site", SITES)
def test_kernel_against_kron_oracle(site, n):
    rng = np.random.default_rng([SITES.index(site), n])
    for _ in range(8):
        word, coeff = random_word(rng, n), float(rng.uniform(-2, 2))
        if site == "pure":
            state = random_pure_state(n, rng)
            psi = state.amplitudes
            oracle = coeff * np.real(np.vdot(psi, dense_pauli(word) @ psi))
            assert pauli_expectation(state, PauliString(word, coeff)) == pytest.approx(oracle, abs=1e-12)
        elif site == "mixed":
            rho = random_density_matrix(n, rng)
            oracle = coeff * np.real(np.trace(dense_pauli(word) @ rho.entries))
            assert pauli_expectation(rho, PauliString(word, coeff)) == pytest.approx(oracle, abs=1e-12)
        elif site == "apply_gate":
            state = random_pure_state(n, rng)
            qubits = [int(q) + 1 for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
            sub = random_word(rng, len(qubits))
            full = ["I"] * n
            for letter, q in zip(sub, qubits):
                full[q - 1] = letter
            out = apply_gate(state, sub, qubits).amplitudes
            assert np.allclose(out, dense_pauli("".join(full)) @ state.amplitudes, rtol=0, atol=1e-12)
        elif site == "cz":
            m = max(n, 2)
            state = random_pure_state(m, rng)
            q1, q2 = (int(q) + 1 for q in rng.choice(m, size=2, replace=False))
            out = apply_gate(state, CZ, [q1, q2]).amplitudes
            assert np.array_equal(out, cz_by_loop(state.amplitudes, q1, q2, m))
        elif site == "dephase":
            state = random_pure_state(n, rng)
            p = float(rng.uniform(0, 1))
            qubits = tuple(int(q) + 1 for q in rng.permutation(n)[: rng.integers(1, n + 1)])
            rho = np.outer(state.amplitudes, state.amplitudes.conj())
            for q in qubits:
                z = dense_pauli("I" * (q - 1) + "Z" + "I" * (n - q))
                rho = (1 - p) * rho + p * (z @ rho @ z)
            got = apply_noise(state, NoiseSpec("dephase", p, qubits)).entries
            assert np.allclose(got, rho, rtol=0, atol=1e-12)
        elif site == "counts":
            setting = random_word(rng, n, "XYZ")
            word = "".join("I" if rng.random() < 0.4 else b for b in setting)
            counts = rng.integers(0, 50, size=2**n)
            counts[0] += 1
            signs = np.array(
                [
                    np.prod([1 - 2 * ((i >> (n - 1 - k)) & 1) for k, c in enumerate(word) if c != "I"])
                    for i in range(2**n)
                ]
            )
            value = np.dot(signs, counts) / counts.sum()
            sigma = np.sqrt(np.dot(counts, (signs - value) ** 2)) / counts.sum()
            rec = CountRecord(TomographicSetting(setting), counts)
            assert expectation_from_counts(rec, word) == pytest.approx((value, sigma), abs=1e-12)
            scaled = expectation_from_counts(rec, PauliString(word, coeff))
            assert scaled == pytest.approx((coeff * value, abs(coeff) * sigma), abs=1e-12)
        else:
            words = [word] + [random_word(rng, n) for _ in range(rng.integers(0, 6))]
            b = ObservableSum(tuple(PauliString(w, float(rng.uniform(-1, 1))) for w in words), coeff)
            target = random_pure_state(n, rng)
            assert verify_dominance(b, target) == dominance_by_kron(b, target)
    if site == "dense" and n == 4:
        for target in (cluster4(), named_state("ghz4")):
            for b in (build_b2(), build_b4()):
                assert verify_dominance(b, target) == dominance_by_kron(b, target)
