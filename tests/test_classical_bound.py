import math
from functools import reduce

import numpy as np
import pytest

from clustersim.classical_bound import _trace_bound, classical_bound, margin_report, optimal_group_state
from clustersim.mbqc import (
    SINGLE_QUBIT_INSTRUCTIONS,
    TWO_QUBIT_INSTRUCTIONS,
    target_single,
    target_two_qubit,
)
from clustersim.states import PureState, named_state
from conftest import (
    enumerate_partitions,
    enumerated_bound,
    random_pure_state,
    stirling2,
    whole_bound,
)

COS2_PI8 = math.cos(math.pi / 8) ** 2


def power_iteration_top_eigenvalue(mat: np.ndarray, iters: int = 500) -> float:
    """Independent oracle for the largest eigenvalue of a PSD matrix."""
    vec = np.ones(mat.shape[0], dtype=complex)
    vec /= np.linalg.norm(vec)
    for _ in range(iters):
        vec = mat @ vec
        norm = np.linalg.norm(vec)
        if norm < 1e-300:
            return 0.0
        vec /= norm
    return float(np.real(np.vdot(vec, mat @ vec)))


class TestEnumeratePartitions:
    def test_three_elements_two_blocks(self):
        parts = list(enumerate_partitions(3, 2))
        assert parts == [
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0, 2), (1,)),
            ((0,), (1, 2)),
        ]

    def test_count_eight_elements_four_blocks(self):
        count = sum(1 for _ in enumerate_partitions(8, 4))
        assert count == 2795
        assert count == sum(stirling2(8, k) for k in range(1, 5))

    def test_single_element(self):
        assert list(enumerate_partitions(1, 1)) == [((0,),)]

    def test_no_duplicates(self):
        parts = list(enumerate_partitions(6, 3))
        assert len(parts) == len(set(parts))
        assert len(parts) == sum(stirling2(6, k) for k in range(1, 4))

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(13, 4))
        with pytest.raises(ValueError):
            list(enumerate_partitions(4, 0))


class TestOptimalGroupState:
    def test_psi1_psi2_group(self):
        psi1 = target_two_qubit(TWO_QUBIT_INSTRUCTIONS[0])
        psi2 = target_two_qubit(TWO_QUBIT_INSTRUCTIONS[1])
        _, mean_fid = optimal_group_state([psi1, psi2])
        assert mean_fid == pytest.approx(COS2_PI8, abs=1e-12)

    def test_plus_r_group(self):
        _, mean_fid = optimal_group_state([named_state("plus"), named_state("r")])
        assert mean_fid == pytest.approx(COS2_PI8, abs=1e-12)

    def test_singleton(self):
        state, mean_fid = optimal_group_state([named_state("v")])
        assert mean_fid == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(state.amplitudes, named_state("v").amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            optimal_group_state([])

    def test_against_power_iteration_oracle(self, rng):
        for _ in range(10):
            group = [random_pure_state(2, rng) for _ in range(3)]
            _, mean_fid = optimal_group_state(group)
            mean_proj = sum(
                np.outer(s.amplitudes, s.amplitudes.conj()) for s in group
            ) / len(group)
            assert mean_fid == pytest.approx(power_iteration_top_eigenvalue(mean_proj), abs=1e-9)


class TestClassicalBound:
    def test_two_qubit_bound(self):
        targets = [target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS]
        value, strategy = classical_bound(targets, bits=2)
        assert value == pytest.approx(COS2_PI8, abs=1e-9)
        assert len(strategy.groups) <= 4
        assert sorted(i for g in strategy.groups for i in g) == list(range(8))

    def test_single_qubit_bound(self):
        targets = [target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS]
        value, strategy = classical_bound(targets, bits=2)
        assert value == pytest.approx(1 / 3 + 2 / 3 * COS2_PI8, abs=1e-9)
        # optimal grouping pairs {+,R} and {-,L} and isolates H and V
        sizes = sorted(len(g) for g in strategy.groups)
        assert sizes == [1, 1, 2, 2]

    def test_enough_bits_gives_one(self, rng):
        targets = [random_pure_state(1, rng) for _ in range(3)]
        value, _ = classical_bound(targets, bits=2)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_zero_bits_is_mean_projector_eigenvalue(self, rng):
        targets = [random_pure_state(1, rng) for _ in range(4)]
        value, _ = classical_bound(targets, bits=0)
        _, expected = optimal_group_state(targets)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_mixture_no_gain(self, rng):
        # random convex combinations of per-partition values never beat the optimum
        targets = [random_pure_state(1, rng) for _ in range(5)]
        optimum, _ = classical_bound(targets, bits=1)
        projectors = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in targets]
        values = []
        for partition in enumerate_partitions(5, 2):
            values.append(
                sum(
                    float(np.linalg.eigvalsh(sum(projectors[i] for i in b))[-1])
                    for b in partition
                )
                / 5
            )
        values = np.array(values)
        for _ in range(50):
            weights = rng.dirichlet(np.ones(len(values)))
            assert float(weights @ values) <= optimum + 1e-9

    def test_unitary_invariance(self, rng):
        base = [target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS]
        reference, _ = classical_bound(base, bits=2)
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(g)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            rotated = [PureState.from_amplitudes(u @ s.amplitudes) for s in base]
            value, _ = classical_bound(rotated, bits=2)
            assert value == pytest.approx(reference, abs=1e-9)

    def test_too_many_targets(self, rng):
        targets = [random_pure_state(1, rng) for _ in range(13)]
        with pytest.raises(ValueError):
            classical_bound(targets, bits=2)

    def test_unequal_dimensions(self, rng):
        targets = [random_pure_state(1, rng), random_pure_state(2, rng)]
        with pytest.raises(ValueError, match="targets must have equal dimension"):
            classical_bound(targets, bits=1)

    @pytest.mark.parametrize("bits", [1.5, 2.0, "2", -1, True, False, np.True_])
    def test_bits_not_a_nonnegative_integer(self, rng, bits):
        targets = [random_pure_state(1, rng) for _ in range(3)]
        with pytest.raises(ValueError, match="bits"):
            classical_bound(targets, bits=bits)

    def test_paper_groupings(self):
        two = [target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS]
        single = [target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS]
        assert classical_bound(two, bits=2)[1].groups == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert classical_bound(single, bits=2)[1].groups == ((0, 2), (1, 3), (4,), (5,))


def _tie_heavy_targets(rng, kind: int, n: int) -> list:
    """Random targets (kind 0) or ones with exact ties: repeats of a few
    random states (1) or of the paper's two-qubit (2) or single-qubit (3)
    targets."""
    qubits = int(rng.integers(1, 3))
    if kind == 0:
        return [random_pure_state(qubits, rng) for _ in range(n)]
    if kind == 1:
        pool = [random_pure_state(qubits, rng) for _ in range(int(rng.integers(1, 4)))]
    elif kind == 2:
        pool = [target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS]
    else:
        pool = [target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS]
    return [pool[int(rng.integers(len(pool)))] for _ in range(n)]


class TestAgainstEnumeration:
    """The subset DP against exhaustive enumeration of set partitions."""

    def _agree(self, targets, bits):
        value, strategy = classical_bound(targets, bits)
        expected_value, expected_groups = enumerated_bound(targets, bits)
        assert value == pytest.approx(expected_value, abs=1e-12)
        assert strategy.groups == expected_groups
        assert strategy.average_fidelity == value

    @pytest.mark.parametrize("bits", [0, 1, 2, 3])
    def test_paper_sets(self, bits):
        self._agree([target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS], bits)
        self._agree([target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS], bits)

    def test_random_and_tied_targets(self):
        rng = np.random.default_rng(2024)
        for trial in range(120):
            n, bits = int(rng.integers(1, 9)), int(rng.integers(0, 4))
            self._agree(_tie_heavy_targets(rng, trial % 4, n), bits)

    def test_first_restricted_growth_string_among_ties(self):
        # Several groupings tie here. Taking the first block with the most
        # early targets would give ((0, 4), (1,), (2,), (3,)), which comes
        # later in restricted-growth order (0, 1, 2, 3, 0 > 0, 1, 2, 2, 3).
        targets = [target_two_qubit(TWO_QUBIT_INSTRUCTIONS[i]) for i in (0, 2, 4, 5, 1)]
        _, strategy = classical_bound(targets, bits=2)
        assert strategy.groups == ((0,), (1,), (2, 3), (4,))
        self._agree(targets, 2)


def _random_bases(rng, qubits: int, n: int) -> list:
    """n targets: the columns of random unitaries on `qubits` qubits, one
    orthonormal basis after another (every full basis sums to the identity)."""
    dim, columns = 2**qubits, []
    while len(columns) < n:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        columns += list(np.linalg.qr(g)[0].T)
    return [PureState.from_amplitudes(c) for c in columns[:n]]


class TestPrunedTopLayer:
    """The solver diagonalises only the block sums its DP can pick, chosen by
    the trace bound, and keeps the bits of the solver that diagonalises all."""

    @pytest.mark.parametrize("kind", ["random", "repeated", "bases", "paper"])
    def test_trace_bound_is_never_below_the_block_value(self, kind):
        rng = np.random.default_rng(["random", "repeated", "bases", "paper"].index(kind))
        for qubits in (1, 2):
            if kind == "random":
                targets = [random_pure_state(qubits, rng) for _ in range(10)]
            elif kind == "repeated":
                pool = [random_pure_state(qubits, rng) for _ in range(2)]
                targets = [pool[int(rng.integers(2))] for _ in range(10)]
            elif kind == "bases":
                targets = _random_bases(rng, qubits, 10)
            else:
                targets = [target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS] if qubits == 1 else [
                    target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS]
            n = len(targets)
            proj = np.array([np.outer(s.amplitudes, s.amplitudes.conj()) for s in targets])
            member = np.arange(1 << n)[:, None] >> np.arange(n) & 1
            sums = np.array([reduce(np.add, proj[np.flatnonzero(m)], np.zeros_like(proj[0])) for m in member])
            top = np.linalg.eigvalsh(sums)[:, -1]
            bound = _trace_bound(np.stack([s.amplitudes for s in targets]))
            assert bound.shape == top.shape and (bound >= top).all(), (kind, qubits, (top - bound).max())

    def test_bases_sum_to_the_identity_within_rounding(self):
        # what the padding of s is for: a full basis has s^2 = 0 up to rounding
        targets = _random_bases(np.random.default_rng(3), 2, 4)
        bound = _trace_bound(np.stack([s.amplitudes for s in targets]))
        assert 1 <= bound[-1] < 1 + 1e-5

    def test_diagonalised_block_sums(self, memo, rng, monkeypatch):
        eigvalsh, counted = np.linalg.eigvalsh, []

        def spy(a):
            counted.append(len(a) if a.ndim == 3 else 1)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        targets = [random_pure_state(2, rng) for _ in range(12)]
        classical_bound(targets, bits=1)
        assert 0 < sum(counted) < 512  # of 4,096 block sums
        counted.clear()
        classical_bound(targets, bits=0)
        assert sum(counted) == 1

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_bits_against_every_block_diagonalised(self, memo, n):
        rng = np.random.default_rng([2026, n])
        for kind in range(4):
            targets = _tie_heavy_targets(rng, kind, n)
            for bits in range(4):
                value, strategy = classical_bound(targets, bits)
                expected_value, expected = whole_bound(targets, bits)
                assert np.float64(value).tobytes() == np.float64(expected_value).tobytes(), (kind, bits)
                assert strategy.groups == expected.groups and strategy.average_fidelity == value
                assert [s.amplitudes.tobytes() for s in strategy.prepared_states] == [
                    s.amplitudes.tobytes() for s in expected.prepared_states]


class TestMemoisedSolve:
    """A solve is memoised by block count and target amplitudes."""

    def test_equal_content_shares_one_solve(self, memo, rng):
        targets = [random_pure_state(2, rng) for _ in range(6)]
        value, strategy = classical_bound(targets, bits=1)
        copies = [PureState(2, np.array(s.amplitudes)) for s in targets]
        assert classical_bound(copies, bits=1)[1] is strategy
        assert memo.misses == {"_solve": 1} and memo.hits == {"_solve": 1}
        expected_value, expected_groups = enumerated_bound(targets, 1)
        assert value == pytest.approx(expected_value, abs=1e-12) and strategy.groups == expected_groups

    def test_bits_beyond_the_target_count_share_one_solve(self, memo, rng):
        targets = [random_pure_state(1, rng) for _ in range(4)]
        results = [classical_bound(targets, bits) for bits in (2, 3, 7)]
        assert memo.misses == {"_solve": 1} and memo.hits == {"_solve": 2}
        assert results[0][0] == pytest.approx(1.0, abs=1e-12) and all(r[1] is results[0][1] for r in results)
        assert results[0][1].groups == enumerated_bound(targets, 2)[1] == ((0,), (1,), (2,), (3,))

    def test_a_fresh_solve_has_the_same_bits(self, memo):
        two = [target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS]
        value, strategy = classical_bound(two, bits=2)
        memo.clear()
        again, fresh = classical_bound(two, bits=2)
        assert fresh is not strategy and again == value == strategy.average_fidelity
        assert fresh.groups == strategy.groups
        for a, b in zip(fresh.prepared_states, strategy.prepared_states):
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes() and not a.amplitudes.flags.writeable


class TestMarginReport:
    def test_two_qubit_margin(self):
        assert margin_report(0.895, 0.010, COS2_PI8) == pytest.approx(4.14, abs=0.01)

    def test_single_qubit_margin(self):
        bound = 1 / 3 + 2 / 3 * COS2_PI8
        assert margin_report(0.926, 0.010, bound) == pytest.approx(2.36, abs=0.01)

    def test_zero_margin(self):
        assert margin_report(0.9, 0.05, 0.9) == 0.0

    def test_nonpositive_error(self):
        with pytest.raises(ValueError):
            margin_report(0.9, 0.0, 0.85)
        for mean, err in ((0.9, math.nan), (math.nan, 0.01), (0.9, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                margin_report(mean, err, 0.85)
