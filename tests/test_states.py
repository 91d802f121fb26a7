import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersim.counts import born_distribution
from clustersim.states import (
    CZ,
    RX,
    RZ,
    DensityMatrix,
    LocalBasis,
    PauliString,
    PureState,
    apply_gate,
    cluster4,
    fidelity,
    measure,
    named_state,
    pauli_expectation,
    schmidt_coefficients,
)
from clustersim.states import _branch, _branches
from clustersim.witness import TomographicSetting
from conftest import (
    amplitude,
    basis_index,
    bitwise_equal,
    dense_pauli,
    dense_rotation,
    ket,
    pure_state_from_json,
    pure_state_to_json,
    random_density_matrix,
    random_pure_state,
    tensordot_measure,
    whole_born,
    whole_hermitian_gap,
    wrong_type,
)

S2 = 1 / math.sqrt(2)


class TestCluster4:
    def test_amplitudes(self):
        c4 = cluster4()
        assert amplitude(c4, "HHHH") == 0.5
        assert amplitude(c4, "HHVV") == 0.5
        assert amplitude(c4, "VVHH") == 0.5
        assert amplitude(c4, "VVVV") == -0.5
        assert np.count_nonzero(c4.amplitudes) == 4

    def test_norm(self):
        assert abs(np.linalg.norm(cluster4().amplitudes) - 1) < 1e-12

    def test_zzii_expectation_by_term_sum(self):
        # independent oracle: sum |amplitude|^2 * eigenvalue over the four
        # nonzero basis terms; Z on qubits 1,2 gives +1 on all of them
        c4 = cluster4()
        total = 0.0
        for label in ("HHHH", "HHVV", "VVHH", "VVVV"):
            z1 = 1 - 2 * (label[0] == "V")
            z2 = 1 - 2 * (label[1] == "V")
            total += abs(amplitude(c4, label)) ** 2 * z1 * z2
        assert total == pytest.approx(1.0, abs=1e-12)
        assert pauli_expectation(c4, "ZZII") == pytest.approx(total, abs=1e-12)


class TestNamedStates:
    def test_ghz4(self):
        s = named_state("ghz4")
        assert s.amplitudes[0] == pytest.approx(S2)
        assert s.amplitudes[15] == pytest.approx(S2)
        assert np.count_nonzero(s.amplitudes) == 2

    def test_dicke4(self):
        s = named_state("dicke4")
        nonzero = np.nonzero(s.amplitudes)[0]
        assert len(nonzero) == 6
        assert all(bin(i).count("1") == 2 for i in nonzero)
        assert np.allclose(s.amplitudes[nonzero], 1 / math.sqrt(6))

    def test_w4_normalized(self):
        assert abs(np.linalg.norm(named_state("w4").amplitudes) - 1) < 1e-12

    @pytest.mark.parametrize("name,vec", [
        ("plus", [S2, S2]),
        ("r", [S2, 1j * S2]),
        ("v", [0, 1]),
    ])
    def test_single_qubit(self, name, vec):
        assert np.allclose(named_state(name).amplitudes, vec)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_state("bell")


class TestApplyGate:
    def test_rz_plus_gives_r(self):
        out = apply_gate(named_state("plus"), RZ(math.pi / 2), [1])
        assert fidelity(out, named_state("r")) == pytest.approx(1.0, abs=1e-12)

    def test_cz_on_plus_plus(self):
        state = named_state("plus").tensor(named_state("plus"))
        out = apply_gate(state, CZ, [1, 2])
        expected = ket([1, 0], [S2, S2]) + ket([0, 1], [S2, -S2])
        assert fidelity(out, PureState.from_amplitudes(expected)) == pytest.approx(1.0, abs=1e-12)

    def test_rx_zero_is_identity(self, rng):
        state = random_pure_state(3, rng)
        out = apply_gate(state, RX(0.0), [2])
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_pauli_word_gate(self, rng):
        state = random_pure_state(2, rng)
        out = apply_gate(state, "XZ", [1, 2])
        oracle = dense_pauli("XZ") @ state.amplitudes
        assert np.allclose(out.amplitudes, oracle, atol=1e-12)

    @pytest.mark.parametrize("gate", [RZ, RX])
    def test_rotations_match_dense_oracle(self, gate, rng):
        """cos(theta/2) psi - i sin(theta/2) P psi through the Pauli kernel
        equals the 2x2 matrix on the qubit's axis, on every qubit at n = 1..6."""
        for n in range(1, 7):
            state = random_pure_state(n, rng)
            for theta in (0.0, math.pi / 2, -math.pi / 2, math.pi, 2 * math.pi, rng.uniform(-10, 10)):
                for qubit in range(1, n + 1):
                    out = apply_gate(state, gate(theta), [qubit]).amplitudes
                    assert np.max(np.abs(out - dense_rotation(state, gate(theta), qubit))) <= 1e-15

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(cluster4(), RZ(0.3), [5])

    def test_cz_arity(self):
        with pytest.raises(ValueError):
            apply_gate(cluster4(), CZ, [1])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            apply_gate(cluster4(), CZ, [2, 2])


class TestFidelity:
    def test_self(self):
        assert fidelity(cluster4(), cluster4()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        mm = DensityMatrix.maximally_mixed(4)
        assert fidelity(mm, cluster4()) == pytest.approx(1 / 16, abs=1e-12)

    def test_ghz_vs_cluster(self):
        # direct overlap: GHZ meets the cluster only on 0000 and 1111, whose
        # amplitudes (1/2 and -1/2) cancel against the GHZ signs
        overlap = np.vdot(named_state("ghz4").amplitudes, cluster4().amplitudes)
        assert abs(overlap) ** 2 == pytest.approx(0.0, abs=1e-12)
        assert fidelity(named_state("ghz4"), cluster4()) == pytest.approx(abs(overlap) ** 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(named_state("plus"), cluster4())

    @given(phi=st.floats(0, 2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_insensitive(self, phi):
        c4 = cluster4()
        rotated = PureState(4, np.exp(1j * phi) * c4.amplitudes)
        assert fidelity(rotated, c4) == pytest.approx(fidelity(c4, c4), abs=1e-12)


class TestPauliExpectation:
    def test_cluster_examples(self):
        assert pauli_expectation(cluster4(), "ZZII") == pytest.approx(1.0, abs=1e-12)
        assert pauli_expectation(cluster4(), "YYZI") == pytest.approx(-1.0, abs=1e-12)

    def test_mixed_traceless(self):
        mm = DensityMatrix.maximally_mixed(4)
        assert pauli_expectation(mm, "XYZI") == pytest.approx(0.0, abs=1e-12)

    def test_against_dense_oracle(self, rng):
        for _ in range(20):
            state = random_pure_state(4, rng)
            word = "".join(rng.choice(list("IXYZ"), size=4))
            oracle = np.real(np.vdot(state.amplitudes, dense_pauli(word) @ state.amplitudes))
            assert pauli_expectation(state, word) == pytest.approx(oracle, abs=1e-12)

    def test_coefficient(self):
        p = PauliString("ZZII", -0.25)
        assert pauli_expectation(cluster4(), p) == pytest.approx(-0.25, abs=1e-12)

    def test_word_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_expectation(cluster4(), "ZZ")

    def test_invalid_letter(self):
        for state in (cluster4(), cluster4().to_density()):
            with pytest.raises(ValueError, match="invalid Pauli word"):
                pauli_expectation(state, "ZZIA")
        with pytest.raises(ValueError, match="invalid Pauli word"):
            apply_gate(cluster4(), "Q", [1])


class TestLocalBasis:
    @pytest.mark.parametrize("letter", "XYZ")
    def test_outcome_zero_is_plus_one_eigenvector(self, letter):
        v0, v1 = LocalBasis(letter).vectors()
        pauli = dense_pauli(letter)
        assert np.allclose(pauli @ v0, v0, atol=1e-15)
        assert np.allclose(pauli @ v1, -v1, atol=1e-15)

    @pytest.mark.parametrize(
        "kind,planar",
        [("X", LocalBasis.planar_std(0.0)), ("Y", LocalBasis.planar_std(-math.pi / 2)), ("Z", LocalBasis.planar_had(0.0))],
    )
    def test_pauli_kinds_match_planar_bases(self, kind, planar):
        assert np.allclose(LocalBasis(kind).vectors(), planar.vectors(), atol=1e-15)

    def test_planar_half_pi_is_y_swapped(self):
        assert np.allclose(LocalBasis.y().vectors()[::-1], LocalBasis.planar_std(math.pi / 2).vectors(), atol=1e-15)

    def test_y_vectors_are_exact(self):
        v0, v1 = LocalBasis.y().vectors()
        assert v0.tolist() == [S2, 1j * S2] and v1.tolist() == [S2, -1j * S2]


class TestMeasure:
    def test_cluster_x_on_qubit4(self):
        p, outcome, collapsed = measure(cluster4(), 4, LocalBasis.x(), select=0)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert outcome == 0
        assert collapsed.n_qubits == 3

    def test_eigenstate(self):
        p, _, _ = measure(named_state("h"), 1, LocalBasis.z(), select=0)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_forbidden_branch(self):
        with pytest.raises(ValueError):
            measure(named_state("h"), 1, LocalBasis.z(), select=1)

    def test_born_completeness(self, rng):
        for _ in range(10):
            state = random_pure_state(3, rng)
            basis = LocalBasis.planar_std(rng.uniform(0, 2 * math.pi))
            qubit = int(rng.integers(1, 4))
            total = 0.0
            for bit in (0, 1):
                try:
                    p, _, _ = measure(state, qubit, basis, select=bit)
                except ValueError:
                    p = 0.0
                total += p
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_remaining_order(self):
        # measuring qubit 1 of |HV> leaves |V>
        state = named_state("h").tensor(named_state("v"))
        _, _, collapsed = measure(state, 1, LocalBasis.z(), select=0)
        assert fidelity(collapsed, named_state("v")) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_random_outcome_deterministic(self):
        results = {measure(cluster4(), 4, LocalBasis.x(), seed=42)[1] for _ in range(5)}
        assert len(results) == 1

    def test_matches_tensordot_oracle(self, rng):
        """The branch engine's one-step call against an independent
        `tensordot` measurement: every qubit of random states at n = 1..5,
        planar and Pauli bases, both outcomes and seeded draws."""
        for n in range(1, 6):
            for _ in range(4):
                state = random_pure_state(n, rng)
                bases = [LocalBasis(k) for k in "XYZ"] + [
                    LocalBasis(k, rng.uniform(-math.pi, math.pi)) for k in ("planar_std", "planar_had")
                ]
                for qubit in range(1, n + 1):
                    for basis in bases:
                        calls = [{"select": 0}, {"select": 1}, {"seed": int(rng.integers(2**31))}]
                        for kwargs in calls:
                            p, outcome, collapsed = measure(state, qubit, basis, **kwargs)
                            ref_p, ref_outcome, ref = tensordot_measure(state, qubit, basis, **kwargs)
                            assert outcome == ref_outcome and abs(p - ref_p) <= 1e-12
                            assert collapsed.n_qubits == n - 1
                            assert np.max(np.abs(collapsed.amplitudes - ref.amplitudes)) <= 1e-12

    def test_result_is_a_fresh_read_only_copy(self):
        _, _, first = measure(cluster4(), 2, LocalBasis.y(), select=1)
        _, _, again = measure(cluster4(), 2, LocalBasis.y(), select=1)
        assert first.amplitudes is not again.amplitudes and first.amplitudes.base is None
        assert not first.amplitudes.flags.writeable
        assert np.array_equal(first.amplitudes, again.amplitudes)

    def test_density_matrix_rejected(self, rng):
        with pytest.raises(TypeError, match="unsupported state type"):
            measure(random_density_matrix(2, rng), 1, LocalBasis.z(), select=0)
        amps = cluster4().amplitudes
        with pytest.raises(TypeError, match=wrong_type(amps)):
            measure(amps, 1, LocalBasis.z(), select=0)

    def test_bad_outcome_and_qubit_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            measure(cluster4(), 1, LocalBasis.z(), select=2)
        with pytest.raises(ValueError, match="1 outcome bits expected, got '10'"):
            measure(cluster4(), 1, LocalBasis.z(), select=10)
        with pytest.raises(ValueError, match="out of range 1..4"):
            measure(cluster4(), 5, LocalBasis.z(), select=0)


class TestSchmidt:
    def test_cluster_partition_13(self):
        coeffs = schmidt_coefficients(cluster4(), {1, 3})
        assert np.allclose(coeffs, [0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_returns_a_writable_copy_of_the_memoised_spectrum(self, memo):
        coeffs = schmidt_coefficients(cluster4(), {3, 1})
        assert coeffs.flags.writeable and coeffs.flags.owndata
        coeffs[:] = 0.0
        again = schmidt_coefficients(cluster4(), [1, 3, 1])
        assert np.allclose(again, 0.5, atol=1e-10)
        assert memo.misses == {"_schmidt": 1} and memo.hits == {"_schmidt": 1}
        ((stored,), _), = memo.values()
        assert not stored.flags.writeable and stored.tobytes() == again.tobytes()

    def test_cluster_partition_12(self):
        coeffs = schmidt_coefficients(cluster4(), {1, 2})
        assert np.allclose(coeffs, [S2, S2, 0, 0], atol=1e-10)

    def test_product_state(self):
        state = PureState.from_amplitudes(ket([1, 0], [1, 0], [1, 0], [1, 0]))
        coeffs = schmidt_coefficients(state, {1, 2})
        assert np.allclose(coeffs, [1, 0, 0, 0], atol=1e-10)

    def test_squares_sum_to_one(self, rng):
        state = random_pure_state(4, rng)
        coeffs = schmidt_coefficients(state, {2, 4})
        assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            schmidt_coefficients(cluster4(), set())
        with pytest.raises(ValueError):
            schmidt_coefficients(cluster4(), {1, 2, 3, 4})

    def test_fidelity_bounded_by_schmidt_overlap(self, rng):
        # Cauchy-Schwarz: F(s, t) <= (sum_i a_i b_i)^2 over any common cut
        for _ in range(20):
            s, t = random_pure_state(4, rng), random_pure_state(4, rng)
            a = schmidt_coefficients(s, {1, 2})
            b = schmidt_coefficients(t, {1, 2})
            assert fidelity(s, t) <= float(np.dot(a, b)) ** 2 + 1e-9



class TestStateType:
    def test_fidelity_and_expectation_name_the_type(self):
        """The one reader's TypeError, whole, from both value readers."""
        amps = cluster4().amplitudes
        with pytest.raises(TypeError, match=wrong_type(amps)):
            fidelity(amps, cluster4())
        with pytest.raises(TypeError, match=wrong_type(amps)):
            pauli_expectation(amps, "ZZII")

class TestNormPreservation:
    @given(theta=st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_rotations_preserve_norm(self, theta):
        state = cluster4()
        for gate, qubit in ((RZ(theta), 1), (RX(theta), 3)):
            state = apply_gate(state, gate, [qubit])
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    def test_all_gates_random_states(self, rng):
        for _ in range(10):
            state = random_pure_state(4, rng)
            state = apply_gate(state, RZ(rng.uniform(-5, 5)), [1])
            state = apply_gate(state, RX(rng.uniform(-5, 5)), [2])
            state = apply_gate(state, CZ, [3, 4])
            state = apply_gate(state, "IXYZ", [1, 2, 3, 4])
            assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12


class TestSerialization:
    def test_round_trip(self, rng):
        state = random_pure_state(3, rng)
        again = pure_state_from_json(pure_state_to_json(state))
        assert again.n_qubits == 3
        assert np.allclose(again.amplitudes, state.amplitudes)

    def test_schema_fields(self):
        import json

        obj = json.loads(pure_state_to_json(cluster4()))
        assert set(obj) == {"n", "re", "im"}
        assert obj["n"] == 4


class TestValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0]))

    def test_density_invariants(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("least,accepted", [(-2e-8, False), (-5e-9, True)])
    def test_positivity_threshold(self, n, least, accepted, rng):
        """Positivity allows an eigenvalue down to -PSD_ATOL = -1e-8."""
        dim = 2**n
        unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        eigs = np.full(dim, 1 / (dim - 1))
        eigs[0], eigs[1] = least, eigs[1] - least
        mat = (unitary * eigs) @ unitary.conj().T
        mat = (mat + mat.conj().T) / 2
        assert np.linalg.eigvalsh(mat)[0] == pytest.approx(least, rel=1e-4)
        if accepted:
            assert np.array_equal(DensityMatrix(n, mat).entries, mat)
        else:
            with pytest.raises(ValueError, match="significantly negative eigenvalue"):
                DensityMatrix(n, mat)

    def test_low_rank_state_accepted_at_n10(self, rng):
        g = rng.normal(size=(2**10, 3)) + 1j * rng.normal(size=(2**10, 3))
        rho = g @ g.conj().T
        assert DensityMatrix(10, rho / np.trace(rho).real).n_qubits == 10

    @pytest.mark.parametrize("entry,delta", [((100, 120), 1e-6), ((127, 127), 1e-6j)])
    def test_non_hermitian_entry_in_last_row_block(self, entry, delta, rng):
        """n = 7 has two 64-row blocks; the defect and its mirror lie in the second only."""
        mat = np.array(random_density_matrix(7, rng).entries)
        mat[entry] += delta
        assert whole_hermitian_gap(mat) > 1e-10
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(7, mat)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PureState(1, [math.nan, 1]),
            lambda: PureState.from_amplitudes([math.nan, 1]),
            lambda: PureState.from_amplitudes([1e200, math.nan]),
            lambda: PureState.from_amplitudes([1e200, math.inf]),
            lambda: DensityMatrix(1, [[math.nan, 0], [0, 1]]),
            lambda: DensityMatrix(1, [[0.5, math.nan], [math.nan, 0.5]]),
        ],
        ids=[
            "pure", "from_amplitudes", "from_amplitudes-overflow-nan", "from_amplitudes-overflow-inf",
            "density-diagonal", "density-off-diagonal",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_entries_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amps", [[1e200, 1e200], [1e200, 1e200j], [1.7e308, 1.7e308j]])
    def test_from_amplitudes_rescales_an_overflowing_norm(self, amps):
        expected = np.array(amps) / abs(amps[0])
        state = PureState.from_amplitudes(amps)
        assert np.allclose(state.amplitudes, expected / np.linalg.norm(expected), rtol=0, atol=1e-15)

    def test_from_amplitudes_finite_norm_divides_by_the_plain_norm(self, rng):
        for scale in (1e-5, 1.0, 1e150):
            amps = scale * (rng.normal(size=16) + 1j * rng.normal(size=16))
            assert bitwise_equal(PureState.from_amplitudes(amps).amplitudes, amps / np.linalg.norm(amps))

    def test_basis_index(self):
        assert basis_index("HHVV") == 3
        assert basis_index("VVHH") == 12


class TestMemo:
    """Branch tables and Born vectors are one contraction, `states._branches`,
    in one content-keyed memo, `states._memoised`."""

    def test_born_vector_and_all_qubit_branch_table_are_one_entry(self, rng, memo):
        rho = random_density_matrix(3, rng)
        steps = tuple((q, LocalBasis("XYZ"[q - 1])) for q in (1, 2, 3))
        probs = born_distribution(rho, TomographicSetting("XYZ"))
        assert len(memo) == 1 and memo.misses == {"_branches": 1} and not memo.hits
        table = _branches(steps, 3, rho.entries)
        assert len(memo) == 1 and memo.hits == {"_branches": 1}
        assert table[1].tobytes() == probs.tobytes()
        assert np.array_equal(probs, whole_born(rho, "XYZ"))
        assert born_distribution(rho, TomographicSetting("XYZ")).tobytes() == probs.tobytes()
        assert _branches(steps, 3, rho.entries) is table
        assert memo.misses == {"_branches": 1} and memo.hits == {"_branches": 3}

    def test_held_total_is_the_sum_of_the_sizes(self, rng, memo):
        """The byte total lives on the dict in `_MEMO`: a swapped-in one starts
        from 0, an emptied one counts again from 0."""
        assert not hasattr(memo, "held")
        for n in (2, 3, 9, 9, 2):
            born_distribution(random_pure_state(n, rng), TomographicSetting("Z" * n))
            assert memo.held == sum(size for _, size in memo.values())
        assert memo.held == 3 * 4096 + 2 * 24 * 2**9
        memo.clear()
        born_distribution(random_pure_state(2, rng), TomographicSetting("ZZ"))
        assert memo.held == 4096

    def test_no_key_holds_a_copy_of_the_state(self, rng, memo):
        pure, rho = random_pure_state(5, rng), random_density_matrix(3, rng)
        for state, tensor in ((pure, pure.amplitudes), (rho, rho.entries)):
            n = state.n_qubits
            born_distribution(state, TomographicSetting("Z" * n))
            _branches(((1, LocalBasis.x()),), n, tensor)
        assert len(memo) == 4

        def leaves(x):
            return [leaf for item in x for leaf in leaves(item)] if isinstance(x, tuple) else [x]

        for key in memo:
            for leaf in leaves(key):
                assert not isinstance(leaf, (np.ndarray, memoryview, bytearray))
                assert not isinstance(leaf, bytes) or len(leaf) == 32  # a SHA-256 digest, not the state


class TestBranchThreshold:
    """A branch less likely than 1e-12 is impossible where it is used, judged
    on its joint probability; the table keeps its entry."""

    def test_joint_probability_decides(self):
        steps = ((1, LocalBasis.z()), (2, LocalBasis.z()))
        one = [math.sqrt(1 - 1e-7), math.sqrt(1e-7)]  # each step's conditional probability of 1 is 1e-7
        state = PureState.from_amplitudes(ket(one, one, [1, 0]))
        probs = _branches(steps, 3, state.amplitudes)[1]
        assert probs[3] == pytest.approx(1e-14, rel=1e-6)
        assert _branch(_branches(steps, 3, state.amplitudes), "01")[2] == pytest.approx(1e-7, rel=1e-6)
        with pytest.raises(ValueError, match="branch 11 has probability ~0"):
            _branch(_branches(steps, 3, state.amplitudes), "11")
        with pytest.raises(ValueError, match="branch 11 has probability ~0"):
            _branch(_branches(steps, 3, state.to_density().entries), "11")

    def test_string_and_sequence_bits_pick_the_same_branch(self):
        table = _branches(((1, LocalBasis.x()), (2, LocalBasis.z())), 4, cluster4().amplitudes)
        picks = [_branch(table, bits) for bits in ("01", (0, 1), [0, 1])]
        for outcome, state, p in picks:
            assert outcome == "01" and p == picks[0][2]
            assert state.tobytes() == picks[0][1].tobytes()

    def test_bad_bits_keep_their_messages(self):
        two = _branches(((1, LocalBasis.x()), (2, LocalBasis.z())), 4, cluster4().amplitudes)
        one = _branches(((1, LocalBasis.x()),), 4, cluster4().amplitudes)
        with pytest.raises(ValueError, match="^outcome bits must be 0 or 1$"):
            _branch(two, "2")
        with pytest.raises(ValueError, match="^1 outcome bits expected, got '10'$"):
            _branch(one, "10")
        with pytest.raises(ValueError, match="^outcome bits must be 0 or 1$"):
            _branch(two, (0, 2))
