import math

import numpy as np
import pytest

from clustersim.entclass import (
    PAIR_PARTITIONS,
    classify_by_fidelity,
    fidelity_ceiling,
    rank_signature,
)
from clustersim.states import PureState, cluster4, fidelity, named_state, schmidt_coefficients
from conftest import random_pure_state, random_single_qubit_unitary


def truncated_schmidt_state(target: PureState, partition, k: int) -> PureState:
    """Oracle: the best rank-k approximation from the truncated SVD."""
    n = target.n_qubits
    part = sorted(partition)
    rest = [q for q in range(1, n + 1) if q not in part]
    order = [q - 1 for q in part] + [q - 1 for q in rest]
    tensor = np.asarray(target.amplitudes).reshape((2,) * n)
    mat = tensor.transpose(order).reshape(2 ** len(part), -1)
    u, s, vh = np.linalg.svd(mat)
    approx = (u[:, :k] * s[:k]) @ vh[:k, :]
    tensor = approx.reshape((2,) * n).transpose(np.argsort(order))
    return PureState.from_amplitudes(tensor.reshape(-1))


class TestRankSignature:
    def test_cluster(self):
        assert tuple(rank_signature(cluster4())) == (2, 4, 4)
        assert type(rank_signature(cluster4())) is tuple

    def test_ghz_and_w(self):
        assert tuple(rank_signature(named_state("ghz4"))) == (2, 2, 2)
        assert tuple(rank_signature(named_state("w4"))) == (2, 2, 2)

    def test_dicke(self):
        assert tuple(rank_signature(named_state("dicke4"))) == (3, 3, 3)

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            rank_signature(named_state("plus"))

    def test_local_unitary_invariance(self, rng):
        for _ in range(100):
            state = cluster4()
            tensor = np.asarray(state.amplitudes).reshape((2,) * 4)
            for axis in range(4):
                u = random_single_qubit_unitary(rng)
                tensor = np.moveaxis(
                    np.tensordot(u, tensor, axes=([1], [axis])), 0, axis
                )
            rotated = PureState.from_amplitudes(tensor.reshape(-1))
            assert tuple(rank_signature(rotated)) == (2, 4, 4)


class TestFidelityCeiling:
    def test_rank2_ceiling_is_half(self):
        assert fidelity_ceiling(cluster4(), {1, 3}, 2) == pytest.approx(0.5, abs=1e-12)
        assert fidelity_ceiling(cluster4(), {1, 4}, 2) == pytest.approx(0.5, abs=1e-12)

    def test_rank3_ceiling_is_three_quarters(self):
        assert fidelity_ceiling(cluster4(), {1, 3}, 3) == pytest.approx(0.75, abs=1e-12)
        assert fidelity_ceiling(cluster4(), {1, 4}, 3) == pytest.approx(0.75, abs=1e-12)

    def test_full_rank_reaches_one(self):
        assert fidelity_ceiling(cluster4(), {1, 3}, 4) == pytest.approx(1.0, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            fidelity_ceiling(cluster4(), {1, 3}, 5)
        with pytest.raises(ValueError):
            fidelity_ceiling(cluster4(), {1, 3}, 0)

    @pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
    def test_k_not_an_integer(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer in 1..4, got {k!r}"):
            fidelity_ceiling(cluster4(), (1, 3), k)

    def test_monotone_in_k(self, rng):
        for _ in range(10):
            state = random_pure_state(4, rng)
            for part in PAIR_PARTITIONS.values():
                values = [fidelity_ceiling(state, part, k) for k in (1, 2, 3, 4)]
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
                assert values[-1] == pytest.approx(1.0, abs=1e-10)

    def test_ceiling_achieved_by_truncated_expansion(self):
        # the top-k Schmidt truncation is a rank-k state attaining the ceiling
        for k in (2, 3):
            approx = truncated_schmidt_state(cluster4(), {1, 3}, k)
            achieved = fidelity(approx, cluster4())
            ceiling = fidelity_ceiling(cluster4(), {1, 3}, k)
            # the truncation's fidelity is (sum of top-k squared coeffs)^2
            # normalized by the same sum, i.e. exactly the ceiling
            assert achieved == pytest.approx(ceiling, abs=1e-12)
            ranks = np.sum(schmidt_coefficients(approx, {1, 3}) > 1e-7)
            assert ranks == k


class TestClassify:
    def test_high_fidelity_excludes_all(self):
        excluded = classify_by_fidelity(0.860)
        assert "ghz-w" in excluded
        assert "dicke" in excluded
        assert "biseparable" in excluded

    def test_intermediate_excludes_rank2_only(self):
        excluded = classify_by_fidelity(0.6)
        assert excluded == ["biseparable", "ghz-w"]

    def test_low_fidelity_excludes_nothing(self):
        assert classify_by_fidelity(0.4) == []

    def test_boundaries_are_strict(self):
        assert classify_by_fidelity(0.5) == []
        assert "dicke" not in classify_by_fidelity(0.75)
        assert "dicke" in classify_by_fidelity(0.7500001)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_by_fidelity(1.2)
        with pytest.raises(ValueError):
            classify_by_fidelity(-0.1)
