import numpy as np
import pytest

from clustersim.noise import NoiseSpec, apply_noise
from clustersim.states import PureState, cluster4, fidelity, named_state, pauli_expectation
from clustersim.witness import build_b2, build_b4, witness_expectation
from conftest import bitwise_equal, random_pure_state, whole_dephased


def sparse_state(n: int, rng) -> PureState:
    """At most three nonzero amplitudes, so the dephased matrix is mostly
    zeros, whose signs the comparison checks too."""
    amps = np.zeros(2**n, dtype=complex)
    amps[rng.choice(2**n, size=min(3, 2**n), replace=False)] = [1.0, -0.5j, -0.25][: min(3, 2**n)]
    return PureState.from_amplitudes(amps)


class TestNoiseSpec:
    def test_parse_white(self):
        spec = NoiseSpec.parse("white:0.86")
        assert spec == NoiseSpec("white", 0.86)

    def test_parse_dephase_with_qubits(self):
        spec = NoiseSpec.parse("dephase:0.05:1,2")
        assert spec.kind == "dephase"
        assert spec.p == 0.05
        assert spec.qubits == (1, 2)

    def test_parse_errors(self):
        for bad in ("white", "white:2.0", "purple:0.1", "dephase:0.1:1:2"):
            with pytest.raises(ValueError):
                NoiseSpec.parse(bad)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            NoiseSpec("white", -0.1)

    def test_repeated_dephasing_qubit(self):
        with pytest.raises(ValueError, match="distinct"):
            NoiseSpec.parse("dephase:0.1:1,1")
        with pytest.raises(ValueError, match="distinct"):
            NoiseSpec("dephase", 0.1, [2, 3, 2])

    def test_white_noise_takes_no_qubits(self):
        with pytest.raises(ValueError, match="white noise takes no qubit list"):
            NoiseSpec("white", 0.9, (7,))

    def test_empty_dephasing_list_rejected(self):
        with pytest.raises(ValueError, match="empty dephasing qubit list dephases nothing"):
            NoiseSpec("dephase", 0.1, ())
        assert NoiseSpec("dephase", 0.1).qubits is None  # every qubit

    @pytest.mark.parametrize("text,labels", [("dephase:0.1:1,,2", "'1,,2'"), ("dephase:0.1:", "''")])
    def test_empty_qubit_label_named(self, text, labels):
        with pytest.raises(ValueError, match=f"qubit list {labels} has an empty label"):
            NoiseSpec.parse(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dephase:0.1:1.5", "qubit label '1.5' is not an integer"),
            ("dephase:0.1:1,x", "qubit label 'x' is not an integer"),
            ("white:abc", "noise parameter 'abc' is not a number"),
            ("dephase:0.1x:1", "noise parameter '0.1x' is not a number"),
        ],
    )
    def test_unparsable_field_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseSpec.parse(text)

    def test_parse_dephase_forms(self):
        assert NoiseSpec.parse("dephase:0.05") == NoiseSpec("dephase", 0.05)  # every qubit
        assert NoiseSpec.parse("dephase:1: 3") == NoiseSpec("dephase", 1.0, (3,))


class TestWhiteNoise:
    def test_no_noise(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 1.0))
        assert fidelity(rho, cluster4()) == pytest.approx(1.0, abs=1e-12)

    def test_full_noise_is_maximally_mixed(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.0))
        assert fidelity(rho, cluster4()) == pytest.approx(1 / 16, abs=1e-12)
        assert np.allclose(rho.entries, np.eye(16) / 16)

    def test_witness_linearity_on_grid(self):
        b2, b4 = build_b2(), build_b4()
        for p in np.linspace(0, 1, 11):
            rho = apply_noise(cluster4(), NoiseSpec("white", float(p)))
            assert witness_expectation(rho, b4) == pytest.approx(p, abs=1e-12)
            assert witness_expectation(rho, b2) == pytest.approx((3 * p - 1) / 2, abs=1e-12)

    def test_fidelity_formula(self):
        for p in (0.0, 0.25, 0.86, 1.0):
            rho = apply_noise(cluster4(), NoiseSpec("white", p))
            assert fidelity(rho, cluster4()) == pytest.approx(p + (1 - p) / 16, abs=1e-12)

    def test_output_is_valid_density_matrix(self):
        # DensityMatrix construction enforces Hermiticity, trace, positivity
        for p in (0.0, 0.5, 1.0):
            rho = apply_noise(cluster4(), NoiseSpec("white", p))
            assert rho.n_qubits == 4


class TestDephasing:
    def test_zero_probability_is_identity(self):
        rho = apply_noise(cluster4(), NoiseSpec("dephase", 0.0))
        assert fidelity(rho, cluster4()) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_coherence_decay(self):
        # dephasing |+> with probability p scales <X> by 1 - 2p
        for p in (0.1, 0.3, 0.5):
            rho = apply_noise(named_state("plus"), NoiseSpec("dephase", p, (1,)))
            assert pauli_expectation(rho, "X") == pytest.approx(1 - 2 * p, abs=1e-12)

    def test_only_listed_qubits_affected(self):
        rho = apply_noise(cluster4(), NoiseSpec("dephase", 0.5, (1,)))
        # ZZII commutes with Z dephasing on qubit 1
        assert pauli_expectation(rho, "ZZII") == pytest.approx(1.0, abs=1e-12)

    def test_bad_qubit_label(self):
        with pytest.raises(ValueError):
            apply_noise(cluster4(), NoiseSpec("dephase", 0.1, (7,)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_blocks_match_whole_array(self, n, rng):
        """Up to n = 8 (four 64-row blocks): bit for bit, signed zeros included."""
        for state in (PureState.from_amplitudes(np.ones(2**n)), random_pure_state(n, rng), sparse_state(n, rng)):
            for p, qubits in ((0.0, None), (1.0, (n,)), (float(rng.uniform(0, 0.5)), None),
                              (float(rng.uniform(0, 0.5)), tuple(sorted({1, int(rng.integers(1, n + 1))})))):
                rho = apply_noise(state, NoiseSpec("dephase", p, qubits))
                oracle = whole_dephased(state, p, qubits or range(1, n + 1))
                assert bitwise_equal(rho.entries, oracle)
