import itertools
import math

import numpy as np
import pytest

from clustersim.classical_bound import classical_bound
from clustersim.counts import sample_counts
from clustersim.mbqc import (
    SINGLE_QUBIT_INSTRUCTIONS,
    TWO_QUBIT_INSTRUCTIONS,
    GateInstruction,
    MeasurementPattern,
    basis_reassignment_check,
    derive_feedforward,
    execute,
    execute_density,
    single_rotation_pattern,
    target_single,
    target_two_qubit,
    two_qubit_pattern,
)
from clustersim.noise import NoiseSpec, apply_noise
from clustersim.states import (
    RX,
    RZ,
    LocalBasis,
    PureState,
    apply_gate,
    cluster4,
    fidelity,
    measure,
    named_state,
)
from clustersim.entclass import PAIR_PARTITIONS, fidelity_ceiling, rank_signature
from clustersim.mbqc import _corrected
from clustersim.states import _branch, _branches, _pauli_kernel
from clustersim.witness import build_b2, build_b4, required_settings, verify_dominance
from conftest import (
    bitwise_equal,
    bras_reassignment_check,
    dense_pauli,
    ket,
    random_pure_state,
    sequential_branch,
    sequential_sample,
    wrong_type,
)

S2 = 1 / math.sqrt(2)
H, V = [1, 0], [0, 1]
PLUS, MINUS = [S2, S2], [S2, -S2]
R, L = [S2, 1j * S2], [S2, -1j * S2]

PI = math.pi

# the eight two-qubit gate settings and their listed output kets
TWO_QUBIT_TABLE = [
    ((0, 0), ket(H, PLUS) + ket(V, MINUS)),
    ((0, PI / 2), ket(H, R) + ket(V, L)),
    ((0, PI), ket(H, MINUS) + ket(V, PLUS)),
    ((0, -PI / 2), ket(H, L) + ket(V, R)),
    ((PI, 0), ket(H, PLUS) - ket(V, MINUS)),
    ((PI, PI / 2), ket(H, R) - ket(V, L)),
    ((PI, PI), ket(H, MINUS) - ket(V, PLUS)),
    ((PI, -PI / 2), ket(H, L) - ket(V, R)),
]

# the six single-qubit rotation settings and their listed output kets
SINGLE_TABLE = [
    ((0, 0), ket(PLUS)),
    ((PI, 0), ket(MINUS)),
    ((PI / 2, 0), ket(R)),
    ((-PI / 2, 0), ket(L)),
    ((PI / 2, PI / 2), ket(H)),
    ((PI / 2, -PI / 2), ket(V)),
]


class TestTargets:
    @pytest.mark.parametrize("angles,expected", TWO_QUBIT_TABLE)
    def test_two_qubit_targets_match_table(self, angles, expected):
        target = target_two_qubit(GateInstruction(*angles))
        assert fidelity(target, PureState.from_amplitudes(expected)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("angles,expected", SINGLE_TABLE)
    def test_single_targets_match_table(self, angles, expected):
        target = target_single(GateInstruction(*angles))
        assert fidelity(target, PureState.from_amplitudes(expected)) == pytest.approx(1.0, abs=1e-12)

    def test_cz_on_plus_plus_is_psi1(self):
        target = target_two_qubit(GateInstruction(0, 0))
        expected = (ket(H, PLUS) + ket(V, MINUS)) / math.sqrt(2)
        assert np.allclose(np.abs(np.vdot(expected, target.amplitudes)) ** 2, 1.0)


# The angle grid {0, +-pi/2, pi}^2, on which both patterns derive, and the
# correction words (branches in ascending order) that the sequential
# exhaustive search found on it.
GRID = (0.0, PI / 2, -PI / 2, PI)
GRID_WORDS = {
    "two-qubit": lambda a, b: "II IZ IX IY" if b in (0.0, PI) else "II IZ IY IX",
    "single": lambda a, b: (
        "I I Y Y Y Y I I" if a in (0.0, PI) else
        "I X X I X I I X" if b in (0.0, PI) else "I X X I I X X I"
    ),
}

# Outcomes of execute(pattern, cluster4(), seed=s) for s = 0..19, recorded
# from the sequential sampler.
SEEDED_OUTCOMES = [
    (two_qubit_pattern, (0.3, 1.1), "10 11 00 00 11 11 10 11 01 10 10 00 01 11 10 11 10 10 01 01"),
    (
        single_rotation_pattern,
        (PI / 2, -PI / 2),
        "100 110 001 001 111 111 100 111 010 101 101 001 010 111 101 110 100 101 010 010",
    ),
]


def _random_pattern(rng) -> MeasurementPattern:
    """1-3 measurements in random planar bases, in random order, on a
    4-qubit register; every correction is the identity."""
    measured = [int(q) for q in rng.permutation(4)[: rng.integers(1, 4)] + 1]
    steps = [
        (q, LocalBasis(str(rng.choice(["planar_std", "planar_had"])), rng.uniform(-PI, PI)))
        for q in measured
    ]
    outputs = tuple(q for q in range(1, 5) if q not in measured)
    identity = "I" * len(outputs)
    corrections = {"".join(b): identity for b in itertools.product("01", repeat=len(steps))}
    return MeasurementPattern(4, steps, outputs, corrections)


class TestBranchEngine:
    """The batched branch engine against the sequential `tensordot` runner."""

    def test_branches_match_sequential_runner(self, rng):
        for _ in range(40):
            resource, pattern = random_pure_state(4, rng), _random_pattern(rng)
            rho = resource.to_density()
            for bits in itertools.product("01", repeat=len(pattern.steps)):
                branch = "".join(bits)
                out, outcomes, prob = execute(pattern, resource, branch=branch)
                ref, ref_prob = sequential_branch(pattern.steps, resource, branch)
                assert outcomes == branch
                assert abs(prob - ref_prob) <= 1e-12
                assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-12
                out_d, _, prob_d = execute_density(pattern, rho, branch)
                assert abs(prob_d - prob) <= 1e-12
                expected = np.outer(out.amplitudes, out.amplitudes.conj())
                assert np.max(np.abs(out_d.entries - expected)) <= 1e-12

    def test_seeded_draws_match_sequential_sampler(self, rng):
        for _ in range(20):
            resource, pattern = random_pure_state(4, rng), _random_pattern(rng)
            for seed in range(10):
                _, outcomes, prob = execute(pattern, resource, seed=seed)
                assert outcomes == sequential_sample(pattern.steps, resource, seed)
                assert abs(prob - sequential_branch(pattern.steps, resource, outcomes)[1]) <= 1e-12

    @pytest.mark.parametrize("build,angles,expected", SEEDED_OUTCOMES)
    def test_seeded_outcomes_pinned(self, build, angles, expected):
        pattern = build(GateInstruction(*angles))
        drawn = [execute(pattern, cluster4(), seed=s)[1] for s in range(20)]
        assert " ".join(drawn) == expected

    def test_impossible_branch_rejected(self):
        product = PureState.from_amplitudes(ket(H, H, H, H))
        pattern = MeasurementPattern(
            4, [(1, LocalBasis("Z"))], (2, 3, 4), {"0": "III", "1": "III"}
        )
        assert execute(pattern, product, branch="0")[2] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            execute(pattern, product, branch="1")
        with pytest.raises(ValueError):
            execute_density(pattern, product.to_density(), "1")
        with pytest.raises(ValueError):
            execute(pattern, product, branch="2")

    @pytest.mark.parametrize("branch", ["0", "111", ""])
    def test_wrong_length_branch_rejected(self, branch):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        message = f"2 outcome bits expected, got '{branch}'"
        with pytest.raises(ValueError, match=message):
            execute(pattern, cluster4(), branch=branch)
        with pytest.raises(ValueError, match=message):
            execute_density(pattern, cluster4().to_density(), branch)


def _misses_and_hits(memo):
    return memo.misses["_corrected"], memo.hits["_corrected"]


class TestBranchCache:
    """`_corrected` is memoised by content in `states._memoised`: one
    contraction and one correction gather per (pattern, resource), shared by
    execution and the reassignment check; derivation contracts unmemoised."""

    def test_branch_table_costs_one_pure_and_one_mixed_contraction(self, memo):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, -PI / 2))
        resource, m = cluster4(), len(pattern.steps)
        rho = apply_noise(resource, NoiseSpec("dephase", 0.05, (1, 2)))
        branches = [format(i, f"0{m}b") for i in range(2**m)]
        for branch in branches:
            execute(pattern, resource, branch=branch)
        assert _misses_and_hits(memo) == (1, 2**m - 1)
        for branch in branches:
            execute_density(pattern, rho, branch)
        assert _misses_and_hits(memo) == (1 + 1, 2 * 2**m - 2)
        assert set(memo.misses) == {"_corrected"} and len(memo) == 2

    def test_content_equal_resources_share_an_entry(self, memo):
        two_qubit_pattern.cache_clear()  # so that the next call derives, whatever ran before
        pattern = two_qubit_pattern(GateInstruction(0, PI / 2))  # derives on a fresh cluster4()
        execute(pattern, cluster4(), branch="01")
        execute(pattern, cluster4(), seed=3)
        assert basis_reassignment_check(pattern, cluster4())
        assert _misses_and_hits(memo) == (1, 2)
        execute_density(pattern, apply_noise(cluster4(), NoiseSpec("white", 0.86)), "00")
        execute_density(pattern, apply_noise(cluster4(), NoiseSpec("white", 0.86)), "11")
        assert _misses_and_hits(memo) == (2, 3)
        execute_density(pattern, apply_noise(cluster4(), NoiseSpec("white", 0.85)), "00")
        execute_density(pattern, apply_noise(cluster4(), NoiseSpec("dephase", 0.14, (1,))), "00")
        assert _misses_and_hits(memo) == (4, 3)
        assert set(memo.misses) == {"_corrected"}

    def test_cached_arrays_are_read_only_and_recompute_bit_for_bit(self, memo):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, 0))
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.7))
        words = tuple(pattern.corrections.values())
        tables = (lambda t: _branches(pattern.steps, 4, t), lambda t: _corrected(pattern.steps, words, 4, t))
        for table, tensor in itertools.product(tables, (cluster4().amplitudes, rho.entries)):
            memo.clear()
            states, probs = table(tensor)
            assert table(tensor)[0] is states
            for a in (states, probs):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.flat[0] = 0.0
            memo.clear()
            fresh = table(tensor)
            assert fresh[0] is not states
            assert len(fresh) == 2
            for a, b in zip((states, probs), fresh):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_per_call_checks_hold_on_a_hit(self):
        product = PureState.from_amplitudes(ket(H, H, H, H))
        pattern = MeasurementPattern(4, [(1, LocalBasis("Z"))], (2, 3, 4), {"0": "III", "1": "III"})
        rho = product.to_density()
        for _ in range(2):
            with pytest.raises(ValueError, match="probability ~0"):
                execute(pattern, product, branch="1")
            with pytest.raises(ValueError, match="probability ~0"):
                execute_density(pattern, rho, "1")
            with pytest.raises(ValueError, match="0 or 1"):
                execute(pattern, product, branch="2")
            with pytest.raises(ValueError, match="resource size"):
                execute(pattern, named_state("plus"), branch="0")
            with pytest.raises(TypeError):
                execute_density(pattern, rho, None)


class TestSessionReuse:
    """A paper session's lookups on the cluster, its Schmidt spectra, its
    dominance checks and its two classical bounds are still memoised when the
    next session, with other noise, asks again."""

    @staticmethod
    def _session(noise):
        cluster = cluster4()
        rho = apply_noise(cluster, noise)
        patterns = [two_qubit_pattern(i) for i in TWO_QUBIT_INSTRUCTIONS[:4]]
        for pattern in patterns + [single_rotation_pattern(i) for i in SINGLE_QUBIT_INSTRUCTIONS[:4]]:
            m = len(pattern.steps)
            for branch in (format(i, f"0{m}b") for i in range(2**m)):
                execute(pattern, cluster, branch=branch)
                execute_density(pattern, rho, branch)
            assert basis_reassignment_check(pattern, cluster)
        for q, b in zip((1, 2, 3, 4), "XYZX"):
            measure(cluster, q, LocalBasis(b), select=0)
        for state in [cluster] + [named_state(name) for name in ("ghz4", "w4", "dicke4")]:
            rank_signature(state)
        for part, k in itertools.product(PAIR_PARTITIONS.values(), (1, 2, 3, 4)):
            fidelity_ceiling(cluster, part, k)
        for b in (build_b2(), build_b4()):
            verify_dominance(b, cluster)
        classical_bound([target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS], 2)
        classical_bound([target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS], 2)
        for i, setting in enumerate(required_settings(build_b4())):
            sample_counts(rho, setting, 1000, seed=i)

    def test_second_session_misses_only_noisy_lookups(self, memo):
        two_qubit_pattern.cache_clear()  # so that the first session derives, whatever ran before
        single_rotation_pattern.cache_clear()
        self._session(NoiseSpec("white", 0.86))
        first, misses, hits = set(memo), memo.misses.copy(), memo.hits.copy()
        self._session(NoiseSpec("dephase", 0.1, (1, 2)))
        assert memo.misses - misses == {"_corrected": 8, "_branches": 4}
        assert memo.hits["_solve"] - hits["_solve"] == 2
        assert memo.hits["_schmidt"] - hits["_schmidt"] == 4 * 3 + 3 * 4
        assert memo.hits["_dominance"] - hits["_dominance"] == 2
        new = set(memo) - first  # 8 pattern tables and 4 Born vectors on the noisy state
        assert len(new) == 12 and all(key[-2] == (16, 16) for key in new)
        assert sorted(len(key[1]) for key in new) == [2] * 4 + [3] * 4 + [4] * 4
        assert first <= set(memo)  # nothing evicted


class TestPatternMemo:
    """Patterns are memoised per instruction and safe to share."""

    @pytest.mark.parametrize("build", [two_qubit_pattern, single_rotation_pattern])
    def test_repeated_call_returns_the_same_pattern(self, build):
        build.cache_clear()
        first = build(GateInstruction(PI / 2, -PI / 2))
        assert build(GateInstruction(PI / 2, -PI / 2)) is first
        assert build.cache_info().misses == 1 and build.cache_info().hits == 1

    def test_corrections_are_read_only(self):
        pattern = two_qubit_pattern(GateInstruction(0, PI))
        with pytest.raises(TypeError):
            pattern.corrections["00"] = "XX"
        with pytest.raises(TypeError):
            del pattern.corrections["00"]
        assert not pattern.target.amplitudes.flags.writeable

    @pytest.mark.parametrize("build", [two_qubit_pattern, single_rotation_pattern])
    def test_cache_clear_derives_again_bit_for_bit(self, build, memo):
        instr = GateInstruction(PI, PI / 2)
        cached = build(instr)
        table = _corrected(cached.steps, tuple(cached.corrections.values()), 4, cluster4().amplitudes)
        build.cache_clear()
        _pauli_kernel.cache_clear()
        memo.clear()
        fresh = build(instr)
        assert fresh is not cached
        assert fresh.steps == cached.steps and fresh.output_qubits == cached.output_qubits
        assert list(fresh.corrections.items()) == list(cached.corrections.items())
        assert fresh.target.amplitudes.tobytes() == cached.target.amplitudes.tobytes()
        again = _corrected(fresh.steps, tuple(fresh.corrections.values()), 4, cluster4().amplitudes)
        assert again[0] is not table[0]
        for a, b in zip(again, table):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_correction_matrices_follow_the_words(self):
        for pattern in _paper_patterns():
            flip, phase = _pauli_kernel(tuple(pattern.corrections.values()), len(pattern.output_qubits))
            for i, (branch, word) in enumerate(pattern.corrections.items()):
                assert branch == format(i, f"0{len(pattern.steps)}b")
                dense = np.zeros((flip.shape[1],) * 2, dtype=complex)
                dense[flip[i], np.arange(flip.shape[1])] = phase[i]  # P|j> = phase[j] |flip[j]>
                assert np.array_equal(dense, dense_pauli(word))


def _paper_patterns():
    """The 14 patterns of the two reference tables."""
    return [two_qubit_pattern(i) for i in TWO_QUBIT_INSTRUCTIONS] + [
        single_rotation_pattern(i) for i in SINGLE_QUBIT_INSTRUCTIONS
    ]


class TestCorrectionGather:
    """Corrections applied as an index gather equal the dense products P psi
    and P rho P^dagger exactly, on every branch of every paper pattern."""

    @pytest.mark.parametrize("noise", [None, "white:0.86", "dephase:0.05:1,2"])
    def test_gather_equals_dense_product(self, noise):
        pure = cluster4()
        rho = pure.to_density() if noise is None else apply_noise(pure, NoiseSpec.parse(noise))
        for pattern in _paper_patterns():
            m = len(pattern.steps)
            psis = _branches(pattern.steps, 4, pure.amplitudes)[0]
            rhos = _branches(pattern.steps, 4, rho.entries)[0]
            for i, word in enumerate(pattern.corrections.values()):
                branch, op = format(i, f"0{m}b"), dense_pauli(word)
                out = execute_density(pattern, rho, branch)[0].entries
                assert np.array_equal(out, op @ rhos[i] @ op.conj().T)
                if noise is None:
                    out = execute(pattern, pure, branch=branch)[0].amplitudes
                    assert np.array_equal(out, op @ psis[i])


def _grid_patterns():
    """The 32 patterns of the angle grid {0, pi/2, -pi/2, pi}^2, both tasks."""
    grid = [GateInstruction(a, b) for a in (0.0, PI / 2, -PI / 2, PI) for b in (0.0, PI / 2, -PI / 2, PI)]
    return [build(i) for build in (two_qubit_pattern, single_rotation_pattern) for i in grid]


def per_branch_gather(pattern, resource, index):
    """One branch of `_branches`' table with its correction gathered alone,
    (phase * psi)[flip] or (phase[:, None] * rho * phase.conj())[flip[:, None],
    flip]: the output and probability the table of all branches must equal."""
    tensor = _data(resource)
    states, probs = _branches(pattern.steps, 4, tensor)
    (flip,), (phase,) = _pauli_kernel((list(pattern.corrections.values())[index],), len(pattern.output_qubits))
    state = states[index]
    if tensor.ndim == 1:
        return (phase * state)[flip], float(probs[index])
    return (phase[:, None] * state * phase.conj())[flip[:, None], flip], float(probs[index])


class TestCorrectedTable:
    """The corrected outputs of all branches, built by one gather, are the
    per-branch gathers bit for bit, and what callers get are copies."""

    @pytest.mark.parametrize("noise", [None, "white:0.86", "dephase:0.05:1,2"])
    def test_equals_per_branch_gather_bit_for_bit(self, noise):
        pure = cluster4()
        rho = pure.to_density() if noise is None else apply_noise(pure, NoiseSpec.parse(noise))
        for pattern in _grid_patterns():
            m = len(pattern.steps)
            for i in range(2**m):
                branch = format(i, f"0{m}b")
                runs = [(execute_density, rho)] + [(execute, pure)] * (noise is None)
                for run, resource in runs:
                    out, outcomes, prob = run(pattern, resource, branch=branch)
                    ref, ref_prob = per_branch_gather(pattern, resource, i)
                    assert outcomes == branch and prob == ref_prob
                    assert bitwise_equal(_data(out), ref)
            if noise is None:
                table = _branches(pattern.steps, 4, pure.amplitudes)
                for seed in range(8):
                    out, outcomes, prob = execute(pattern, pure, seed=seed)
                    assert outcomes == _branch(table, None, seed)[0]
                    assert bitwise_equal(out.amplitudes, per_branch_gather(pattern, pure, int(outcomes, 2))[0])

    def test_outputs_are_copies(self, memo):
        pattern = two_qubit_pattern(GateInstruction(0, PI / 2))
        outputs = [
            execute(pattern, cluster4(), branch="01")[0].amplitudes,
            execute(pattern, cluster4(), seed=1)[0].amplitudes,
            execute_density(pattern, cluster4().to_density(), "10")[0].entries,
        ]
        tables = [a for value, _ in memo.values() for a in value]
        for out in outputs:
            assert out.flags.owndata and not any(np.shares_memory(out, t) for t in tables)


class TestCorrectionWords:
    """Every correction word is checked against the output register."""

    @pytest.mark.parametrize("word", ["IZZ", "", "Q", "i", 1])
    def test_bad_single_rotation_word_rejected(self, word):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, PI / 2))
        corrections = {**pattern.corrections, "101": word}
        message = f"branch 101: correction {word!r} is not a Pauli word on 1 qubits"
        with pytest.raises(ValueError, match=message):
            MeasurementPattern(4, pattern.steps, pattern.output_qubits, corrections, pattern.target)

    @pytest.mark.parametrize("word", ["X", "XXX", "XA"])
    def test_bad_two_qubit_word_rejected(self, word):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        corrections = {**pattern.corrections, "10": word}
        with pytest.raises(ValueError, match="branch 10"):
            MeasurementPattern(4, pattern.steps, pattern.output_qubits, corrections)

    def test_unknown_branch_rejected(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        corrections = {**pattern.corrections, "12": "II"}
        del corrections["11"]
        with pytest.raises(ValueError, match="one entry per outcome bitstring"):
            MeasurementPattern(4, pattern.steps, pattern.output_qubits, corrections)


def _data(state):
    return state.amplitudes if isinstance(state, PureState) else state.entries


class TestTrustedOutputs:
    """States built on internal paths skip the public checks; each must
    still pass them, hold a read-only array and compare equal when wrapped
    again."""

    def test_outputs_pass_the_public_checks(self, rng):
        for _ in range(40):
            resource = random_pure_state(4, rng)
            pattern = _random_pattern(rng)
            spec = NoiseSpec("white", float(rng.uniform(0, 1)))
            if rng.random() < 0.5:
                k = int(rng.integers(1, 5))
                qubits = tuple(int(q) + 1 for q in rng.choice(4, size=k, replace=False))
                spec = NoiseSpec("dephase", float(rng.uniform(0, 1)), qubits)
            rho = apply_noise(resource, spec)
            outputs = [rho, resource.to_density()]
            for bits in itertools.product("01", repeat=len(pattern.steps)):
                outputs.append(execute(pattern, resource, branch="".join(bits))[0])
                outputs.append(execute_density(pattern, rho, "".join(bits))[0])
            outputs.append(execute(pattern, resource, seed=int(rng.integers(100)))[0])
            qubit, theta = int(rng.integers(1, 5)), float(rng.uniform(-PI, PI))
            basis = LocalBasis(str(rng.choice(["planar_std", "planar_had"])), theta)
            outputs.append(measure(resource, qubit, basis, seed=int(rng.integers(100)))[2])
            outputs.append(apply_gate(resource, RZ(theta), [qubit]))
            outputs.append(apply_gate(resource, RX(theta), [qubit]))
            outputs.append(apply_gate(resource, "XYZI", [1, 2, 3, 4]))
            for state in outputs:
                data = _data(state)
                assert not data.flags.writeable and data.flags.c_contiguous and data.dtype == complex
                again = type(state)(state.n_qubits, data)  # the public constructor's checks
                assert np.array_equal(_data(again), data)


class TestTwoQubitPattern:
    @pytest.mark.parametrize("angles,expected", TWO_QUBIT_TABLE)
    def test_all_branches_deterministic(self, angles, expected):
        pattern = two_qubit_pattern(GateInstruction(*angles))
        listed = PureState.from_amplitudes(expected)
        for i in range(4):
            out, outcomes, prob = execute(pattern, cluster4(), branch=format(i, "02b"))
            assert fidelity(out, listed) >= 1 - 1e-9
            assert prob == pytest.approx(0.25, abs=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        pattern = two_qubit_pattern(GateInstruction(0.3, 1.1))
        total = sum(
            execute(pattern, cluster4(), branch=format(i, "02b"))[2] for i in range(4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_trivial_branch_needs_no_correction(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        assert pattern.corrections["00"] == "II"

    def test_seeded_execution_reproducible(self):
        pattern = two_qubit_pattern(GateInstruction(0, PI / 2))
        runs = [execute(pattern, cluster4(), seed=7) for _ in range(3)]
        assert len({r[1] for r in runs}) == 1
        for out, _, _ in runs:
            assert fidelity(out, pattern.target) >= 1 - 1e-9


class TestSingleRotationPattern:
    @pytest.mark.parametrize("angles,expected", SINGLE_TABLE)
    def test_all_branches_deterministic(self, angles, expected):
        pattern = single_rotation_pattern(GateInstruction(*angles))
        listed = PureState.from_amplitudes(expected)
        for i in range(8):
            out, _, _ = execute(pattern, cluster4(), branch=format(i, "03b"))
            assert fidelity(out, listed) >= 1 - 1e-9

    def test_branch_probabilities_sum_to_one(self):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, PI / 2))
        total = sum(
            execute(pattern, cluster4(), branch=format(i, "03b"))[2] for i in range(8)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDeriveFeedforward:
    def test_product_resource_rejected(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        product = PureState.from_amplitudes(ket(H, H, H, H))
        with pytest.raises(ValueError):
            derive_feedforward(
                pattern.steps, pattern.output_qubits, product, target_two_qubit(GateInstruction(0, 0))
            )

    @pytest.mark.parametrize("alpha", GRID)
    @pytest.mark.parametrize("beta", GRID)
    def test_grid_words_match_sequential_search(self, alpha, beta):
        instr = GateInstruction(alpha, beta)
        for task, build in (("two-qubit", two_qubit_pattern), ("single", single_rotation_pattern)):
            words = build(instr).corrections
            assert " ".join(words[b] for b in sorted(words)) == GRID_WORDS[task](alpha, beta)

    def test_every_branch_has_a_word(self):
        for instr in TWO_QUBIT_INSTRUCTIONS:
            pattern = two_qubit_pattern(instr)
            assert set(pattern.corrections) == {"00", "01", "10", "11"}
            assert all(set(w) <= set("IXYZ") for w in pattern.corrections.values())


class TestNoisyExecution:
    def test_noisy_resource_degrades_output(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        out, _, _ = execute_density(pattern, rho, "00")
        f = fidelity(out, pattern.target)
        assert 0.8 < f < 1.0

    def test_monotone_degradation(self):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, 0))
        fids = []
        for p in (0.2, 0.5, 0.8, 1.0):
            rho = apply_noise(cluster4(), NoiseSpec("white", p))
            out, _, _ = execute_density(pattern, rho, "000")
            fids.append(fidelity(out, pattern.target))
        assert all(a <= b + 1e-12 for a, b in zip(fids, fids[1:]))

    def test_pure_resource_matches_pure_path(self):
        pattern = two_qubit_pattern(GateInstruction(0, PI))
        rho = cluster4().to_density()
        for i in range(4):
            branch = format(i, "02b")
            out_d, _, prob_d = execute_density(pattern, rho, branch)
            out_p, _, prob_p = execute(pattern, cluster4(), branch=branch)
            assert prob_d == pytest.approx(prob_p, abs=1e-12)
            assert fidelity(out_d, out_p) == pytest.approx(1.0, abs=1e-10)


class TestResourceType:
    """A pattern run on the wrong state type is a TypeError, not a malformed state."""

    def test_execute_needs_a_pure_state(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        with pytest.raises(TypeError, match="unsupported state type"):
            execute(two_qubit_pattern(GateInstruction(0, 0)), rho, branch="00")
        with pytest.raises(TypeError, match=wrong_type(cluster4().amplitudes)):
            execute(two_qubit_pattern(GateInstruction(0, 0)), cluster4().amplitudes, branch="00")

    def test_execute_density_needs_a_density_matrix(self):
        with pytest.raises(TypeError, match="unsupported state type"):
            execute_density(two_qubit_pattern(GateInstruction(0, 0)), cluster4(), "00")
        with pytest.raises(TypeError, match=wrong_type(cluster4().amplitudes)):
            execute_density(two_qubit_pattern(GateInstruction(0, 0)), cluster4().amplitudes, "00")

    def test_reassignment_check_needs_a_pure_state(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        with pytest.raises(TypeError, match="unsupported state type"):
            basis_reassignment_check(two_qubit_pattern(GateInstruction(0, 0)), rho)
        with pytest.raises(TypeError, match=wrong_type(cluster4().amplitudes)):
            basis_reassignment_check(two_qubit_pattern(GateInstruction(0, 0)), cluster4().amplitudes)
        p = two_qubit_pattern(GateInstruction(0, 0))
        mixed_target = MeasurementPattern(4, p.steps, p.output_qubits, p.corrections, p.target.to_density())
        with pytest.raises(TypeError, match=wrong_type(mixed_target.target)):
            basis_reassignment_check(mixed_target, cluster4())
        with pytest.raises(TypeError, match=wrong_type(p.target.amplitudes)):
            MeasurementPattern(4, p.steps, p.output_qubits, p.corrections, p.target.amplitudes)

    def test_derivation_needs_pure_states(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        rho = cluster4().to_density()
        for resource, target in ((rho, pattern.target), (cluster4(), pattern.target.to_density())):
            with pytest.raises(TypeError, match=wrong_type(rho)):
                derive_feedforward(pattern.steps, pattern.output_qubits, resource, target)


class TestBasisReassignment:
    def test_two_qubit_pattern(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        assert basis_reassignment_check(pattern, cluster4())

    def test_single_rotation_pattern(self):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, PI / 2))
        assert basis_reassignment_check(pattern, cluster4())

    def test_corrupted_corrections_detected(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        corrupted = dict(pattern.corrections)
        corrupted["01"] = "XX" if corrupted["01"] != "XX" else "YY"
        bad = MeasurementPattern(
            pattern.resource_size, pattern.steps, pattern.output_qubits, corrupted, pattern.target
        )
        assert not basis_reassignment_check(bad, cluster4())

    def test_corrupted_single_rotation_detected(self):
        pattern = single_rotation_pattern(GateInstruction(PI / 2, PI / 2))
        flip = {"I": "X", "X": "I", "Y": "Z", "Z": "Y"}  # the word times X, up to phase
        for branch, word in pattern.corrections.items():
            corrupted = {**pattern.corrections, branch: flip[word]}
            bad = MeasurementPattern(
                pattern.resource_size, pattern.steps, pattern.output_qubits, corrupted, pattern.target
            )
            assert not basis_reassignment_check(bad, cluster4())


# both builders on the paper's angle grid {0, pi/2, pi, -pi/2}^2; the 14 table patterns among them
GRID_INSTRUCTIONS = [GateInstruction(a, b) for a in (0, PI / 2, PI, -PI / 2) for b in (0, PI / 2, PI, -PI / 2)]


def _corrupt(pattern, branch, word):
    corrections = {**pattern.corrections, branch: word}
    return MeasurementPattern(pattern.resource_size, pattern.steps, pattern.output_qubits, corrections, pattern.target)


class TestReassignmentOracle:
    """The Pauli-expectation check agrees with the Born-probability check
    over all 3^k Pauli settings (`conftest.bras_reassignment_check`)."""

    @pytest.mark.parametrize("build", [two_qubit_pattern, single_rotation_pattern])
    @pytest.mark.parametrize("instr", GRID_INSTRUCTIONS)
    def test_grid_patterns_agree_and_pass(self, build, instr):
        pattern = build(instr)
        assert basis_reassignment_check(pattern, cluster4())
        assert bras_reassignment_check(pattern, cluster4())

    def test_random_patterns_and_resources_agree(self, rng):
        verdicts = []
        for _ in range(12):
            # any angles realize the two-qubit gate; the rotation pattern needs grid angles
            instr = GateInstruction(*rng.uniform(-PI, PI, size=2))
            grid = GRID_INSTRUCTIONS[rng.integers(len(GRID_INSTRUCTIONS))]
            for pattern in (two_qubit_pattern(instr), single_rotation_pattern(grid)):
                k, branches = len(pattern.output_qubits), list(pattern.corrections)
                word = "".join(rng.choice(list("IXYZ"), size=k))
                untargeted = MeasurementPattern(4, pattern.steps, pattern.output_qubits, pattern.corrections)
                cases = [pattern, untargeted, _corrupt(pattern, branches[rng.integers(len(branches))], word)]
                for case in cases:
                    for resource in (cluster4(), random_pure_state(4, rng)):
                        verdict = basis_reassignment_check(case, resource)
                        assert verdict == bras_reassignment_check(case, resource)
                        verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    def test_resource_size_checked_with_or_without_target(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        untargeted = MeasurementPattern(4, pattern.steps, pattern.output_qubits, pattern.corrections)
        for case in (pattern, untargeted):
            with pytest.raises(ValueError, match="resource size does not match pattern"):
                basis_reassignment_check(case, PureState.from_amplitudes(np.ones(32)))

    def test_zero_probability_branch_rejected_by_both(self):
        product = PureState.from_amplitudes(ket(H, H, H, H))
        pattern = MeasurementPattern(4, [(1, LocalBasis("Z"))], (2, 3, 4), {"0": "III", "1": "III"})
        for check in (basis_reassignment_check, bras_reassignment_check):
            with pytest.raises(ValueError):
                check(pattern, product)

    def test_every_swapped_word_judged_by_its_output(self):
        """A swapped correction passes both checks exactly when the branch
        still ends on the target, i.e. the two words differ by a stabilizer
        of the target up to phase; otherwise both reject it."""
        rejected = 0
        for build in (two_qubit_pattern, single_rotation_pattern):
            pattern = build(GateInstruction(PI / 2, -PI / 2))
            k = len(pattern.output_qubits)
            for branch in pattern.corrections:
                for word in ("".join(w) for w in itertools.product("IXYZ", repeat=k)):
                    swapped = _corrupt(pattern, branch, word)
                    lands = fidelity(execute(swapped, cluster4(), branch=branch)[0], pattern.target) > 1 - 1e-9
                    assert basis_reassignment_check(swapped, cluster4()) == lands
                    assert bras_reassignment_check(swapped, cluster4()) == lands
                    rejected += not lands
        assert rejected == 4 * 12 + 8 * 2  # 12 of 16 words per two-qubit branch, 2 of 4 per single-qubit one


class TestPatternValidation:
    def test_overlapping_outputs_rejected(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        with pytest.raises(ValueError):
            MeasurementPattern(4, pattern.steps, (2, 4), pattern.corrections)
        twice = {b: "I" for b in ("00", "01", "10", "11")}
        with pytest.raises(ValueError, match="^qubit labels must be distinct$"):
            MeasurementPattern(2, [(1, LocalBasis("X")), (1, LocalBasis("Y"))], (2,), twice)

    @pytest.mark.parametrize(
        "qubits,outputs,message",
        [
            ((2, 2), (1, 4), "^qubit labels must be distinct$"),
            ((2, 3), (3, 4), "^qubit labels must be distinct$"),
            ((2, 5), (1, 4), "^qubit label 5 out of range 1..4$"),
            ((0, 3), (1, 4), "^qubit label 0 out of range 1..4$"),
            ((2,), (1, 4), "^steps and outputs must cover the register 1..4$"),
            ((4, 1, 2), (3,), "^target width 2 does not match output width 1$"),
            ((2,), (1, 3, 4), "^target width 2 does not match output width 3$"),
        ],
    )
    def test_bad_plan_rejected_by_pattern_and_derivation(self, qubits, outputs, message):
        """A qubit measured twice, measured and output, outside 1..4 or left
        out, or a two-qubit target on another number of outputs, is the one
        plan check's error, before any contraction."""
        steps = tuple((q, LocalBasis("planar_std", 0.0)) for q in qubits)
        corrections = {"".join(b): "I" * len(outputs) for b in itertools.product("01", repeat=len(steps))}
        target = target_two_qubit(GateInstruction(0, 0))
        with pytest.raises(ValueError, match=message):
            MeasurementPattern(4, steps, outputs, corrections, target)
        with pytest.raises(ValueError, match=message):
            derive_feedforward(steps, outputs, cluster4(), target)

    def test_incomplete_corrections_rejected(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        partial = {"00": "II"}
        with pytest.raises(ValueError):
            MeasurementPattern(4, pattern.steps, pattern.output_qubits, partial)

    def test_resource_size_mismatch(self):
        pattern = two_qubit_pattern(GateInstruction(0, 0))
        with pytest.raises(ValueError):
            execute(pattern, named_state("plus"), branch="00")

    def test_instruction_sweeps_cover_tables(self):
        assert len(TWO_QUBIT_INSTRUCTIONS) == 8
        assert len(SINGLE_QUBIT_INSTRUCTIONS) == 6
        assert [(i.alpha, i.beta) for i in TWO_QUBIT_INSTRUCTIONS] == [a for a, _ in TWO_QUBIT_TABLE]
        assert [(i.alpha, i.beta) for i in SINGLE_QUBIT_INSTRUCTIONS] == [a for a, _ in SINGLE_TABLE]
