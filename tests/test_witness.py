import numpy as np
import pytest

from clustersim.noise import NoiseSpec, apply_noise
from clustersim.states import DensityMatrix, PauliString, cluster4, fidelity, named_state
from clustersim.witness import (
    ObservableSum,
    TomographicSetting,
    build_b2,
    build_b4,
    required_settings,
    verify_dominance,
    witness_expectation,
)
from conftest import dense_pauli, observable_from_json, observable_to_json, random_density_matrix


def cluster_projector_observable() -> ObservableSum:
    """|C4><C4| expanded in the Pauli basis, by brute-force trace."""
    c4 = cluster4()
    proj = np.outer(c4.amplitudes, c4.amplitudes.conj())
    terms = []
    letters = "IXYZ"
    for idx in range(4**4):
        word = ""
        k = idx
        for _ in range(4):
            word = letters[k % 4] + word
            k //= 4
        coeff = float(np.real(np.trace(dense_pauli(word) @ proj))) / 16
        if word != "IIII" and abs(coeff) > 1e-12:
            terms.append(PauliString(word, coeff))
    offset = float(np.real(np.trace(proj))) / 16
    return ObservableSum(tuple(terms), offset)


class TestConstruction:
    def test_b2_structure(self):
        b2 = build_b2()
        assert len(b2.terms) == 6
        assert b2.identity_offset == -0.5
        assert {t.word for t in b2.terms} == {"ZZII", "IZXX", "ZIXX", "XXZI", "IIZZ", "XXIZ"}
        assert all(t.coefficient == 0.25 for t in b2.terms)

    def test_b4_structure(self):
        b4 = build_b4()
        assert len(b4.terms) == 8
        assert b4.identity_offset == 0.0
        plus = {t.word for t in b4.terms if t.coefficient == 0.125}
        minus = {t.word for t in b4.terms if t.coefficient == -0.125}
        assert plus == {"XXZI", "IZXX", "ZIXX", "XXIZ"}
        assert minus == {"YYZI", "IZYY", "ZIYY", "YYIZ"}

    def test_mixed_word_lengths_rejected(self):
        with pytest.raises(ValueError):
            ObservableSum((PauliString("ZZ"), PauliString("ZZZ")))

    def test_empty_observable_rejected(self):
        """No term gives no register size: a named error, not an IndexError later."""
        with pytest.raises(ValueError, match="an observable needs at least one Pauli term"):
            ObservableSum(())


class TestExpectation:
    def test_ideal_cluster(self):
        c4 = cluster4()
        assert witness_expectation(c4, build_b2()) == pytest.approx(1.0, abs=1e-12)
        assert witness_expectation(c4, build_b4()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        mm = DensityMatrix.maximally_mixed(4)
        assert witness_expectation(mm, build_b2()) == pytest.approx(-0.5, abs=1e-12)
        assert witness_expectation(mm, build_b4()) == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_anchors(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        assert witness_expectation(rho, build_b4()) == pytest.approx(0.86, abs=1e-12)
        assert witness_expectation(rho, build_b2()) == pytest.approx((3 * 0.86 - 1) / 2, abs=1e-12)

    def test_linearity_in_state(self, rng):
        rho1 = random_density_matrix(4, rng)
        rho2 = random_density_matrix(4, rng)
        lam = 0.3
        mix = DensityMatrix(4, lam * rho1.entries + (1 - lam) * rho2.entries)
        for b in (build_b2(), build_b4()):
            mixed = witness_expectation(mix, b)
            convex = lam * witness_expectation(rho1, b) + (1 - lam) * witness_expectation(rho2, b)
            assert mixed == pytest.approx(convex, abs=1e-12)


class TestDominance:
    def test_b2_dominated_by_projector(self):
        assert verify_dominance(build_b2(), cluster4()) >= -1e-10

    def test_b4_dominated_by_projector(self):
        assert verify_dominance(build_b4(), cluster4()) >= -1e-10

    def test_projector_against_itself(self):
        obs = cluster_projector_observable()
        assert verify_dominance(obs, cluster4()) == pytest.approx(0.0, abs=1e-10)

    def test_qubit_counts_must_match(self):
        with pytest.raises(ValueError, match="observable on 4 qubits, target on 1"):
            verify_dominance(build_b2(), named_state("plus"))

    def test_memoised_by_content(self, memo):
        for _ in range(2):
            assert verify_dominance(build_b2(), cluster4()) == verify_dominance(build_b2(), cluster4())
        assert memo.misses == {"_dominance": 1} and memo.hits == {"_dominance": 3}
        verify_dominance(build_b4(), cluster4())
        verify_dominance(build_b2(), named_state("ghz4"))
        assert memo.misses == {"_dominance": 3}

    def test_soundness_on_random_states(self, rng):
        b2, b4 = build_b2(), build_b4()
        c4 = cluster4()
        for _ in range(1000):
            rho = random_density_matrix(4, rng)
            f = fidelity(rho, c4)
            assert witness_expectation(rho, b2) <= f + 1e-9
            assert witness_expectation(rho, b4) <= f + 1e-9

    def test_b4_dominates_b2_on_noise_family(self):
        for p in np.linspace(0, 1, 21):
            rho = apply_noise(cluster4(), NoiseSpec("white", float(p)))
            v2 = witness_expectation(rho, build_b2())
            v4 = witness_expectation(rho, build_b4())
            if p < 1:
                assert v4 > v2
            else:
                assert v4 == pytest.approx(v2, abs=1e-12)


class TestRequiredSettings:
    def test_b2_settings(self):
        settings = {s.bases for s in required_settings(build_b2())}
        assert settings == {"XXZZ", "ZZXX"}

    def test_b4_settings(self):
        settings = {s.bases for s in required_settings(build_b4())}
        assert settings == {"XXZZ", "ZZXX", "YYZZ", "ZZYY"}

    def test_single_term_completed_with_z(self):
        obs = ObservableSum((PauliString("ZZII", 1.0),))
        settings = required_settings(obs)
        assert len(settings) == 1
        assert settings[0].covers("ZZII")

    def test_every_term_covered(self):
        for b in (build_b2(), build_b4()):
            settings = required_settings(b)
            for term in b.terms:
                assert any(s.covers(term.word) for s in settings)


class TestTomographicSetting:
    def test_covers(self):
        s = TomographicSetting("XXZZ")
        assert s.covers("XXZI")
        assert s.covers("IIZZ")
        assert not s.covers("YYZI")
        assert not s.covers("XX")

    def test_invalid_letters(self):
        with pytest.raises(ValueError):
            TomographicSetting("XXIZ")


class TestSerialization:
    def test_round_trip(self):
        b2 = build_b2()
        again = observable_from_json(observable_to_json(b2))
        assert again == b2

    def test_json_shape(self):
        import json

        obj = json.loads(observable_to_json(build_b2()))
        assert obj["offset"] == -0.5
        assert {"word", "coeff"} == set(obj["terms"][0])
