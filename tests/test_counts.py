import itertools
import math
import re

import numpy as np
import pytest

from clustersim import states
from clustersim.counts import (
    CountRecord,
    ZeroCountsError,
    born_distribution,
    exact_record,
    expectation_from_counts,
    outcome_index,
    outcome_string,
    parse_counts,
    probabilities,
    sample_counts,
    serialize_counts,
    witness_from_counts,
)
from clustersim.noise import NoiseSpec, apply_noise
from clustersim.states import (
    CZ,
    DensityMatrix,
    LocalBasis,
    PauliString,
    PureState,
    apply_gate,
    cluster4,
    measure,
    named_state,
)
from clustersim.witness import (
    ObservableSum,
    TomographicSetting,
    build_b2,
    build_b4,
    build_fidelity,
    required_settings,
    witness_expectation,
)
from conftest import (
    bitwise_equal,
    dense_pauli,
    per_term_bound,
    per_term_expectation,
    random_density_matrix,
    random_pure_state,
    whole_born,
    wrong_type,
)


def random_setting(n: int, rng) -> TomographicSetting:
    return TomographicSetting("".join(rng.choice(list("XYZ"), size=n)))


class TestBornDistribution:
    def test_xxzz_support(self):
        setting = TomographicSetting("XXZZ")
        probs = born_distribution(cluster4(), setting)
        support = {outcome_string(setting, i) for i in np.nonzero(probs > 1e-12)[0]}
        assert support == {"++HH", "+-VV", "-+VV", "--HH"}
        assert np.allclose(probs[probs > 1e-12], 0.25)

    def test_zzxx_support(self):
        setting = TomographicSetting("ZZXX")
        probs = born_distribution(cluster4(), setting)
        support = {outcome_string(setting, i) for i in np.nonzero(probs > 1e-12)[0]}
        assert support == {"HH++", "HH--", "VV+-", "VV-+"}

    def test_density_matrix_input(self):
        probs = born_distribution(DensityMatrix.maximally_mixed(4), TomographicSetting("YYZZ"))
        assert np.allclose(probs, 1 / 16)

    @pytest.mark.parametrize("letter", "XYZ")
    def test_marginal_matches_sequential_measure(self, letter, rng):
        for _ in range(5):
            state = random_pure_state(3, rng)
            for qubit in (1, 2, 3):
                bases = "".join(letter if q == qubit else "Z" for q in (1, 2, 3))
                probs = born_distribution(state, TomographicSetting(bases)).reshape(2, 2, 2)
                marginal = probs.sum(axis=tuple(a for a in range(3) if a != qubit - 1))
                for bit in (0, 1):
                    p = measure(state, qubit, LocalBasis(letter), select=bit)[0]
                    assert p == pytest.approx(marginal[bit], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_projector_oracle(self, n, rng):
        """p(s) = Tr(rho (x)_q (1 + s_q P_q)/2), s_q = +1 for outcome bit 0."""
        pure = random_pure_state(n, rng)
        for state in (pure, pure.to_density(), random_density_matrix(n, rng)):
            rho = state.to_density().entries if isinstance(state, PureState) else state.entries
            for bases in itertools.product("XYZ", repeat=n):
                probs = born_distribution(state, TomographicSetting("".join(bases)))
                for index in range(2**n):
                    proj = np.array([[1.0]])
                    for q, b in enumerate(bases):
                        sign = 1 - 2 * ((index >> (n - 1 - q)) & 1)
                        proj = np.kron(proj, (np.eye(2) + sign * dense_pauli(b)) / 2)
                    assert probs[index] == pytest.approx(np.trace(rho @ proj).real, abs=1e-12)

    @pytest.mark.parametrize("state", [cluster4(), cluster4().to_density()])
    def test_a_str_setting_is_read_by_tomographic_setting(self, state):
        setting = TomographicSetting("XXZZ")
        assert bitwise_equal(born_distribution(state, "XXZZ"), born_distribution(state, setting))
        for make in (lambda s: sample_counts(state, s, 5000, 7), lambda s: exact_record(state, s, 10**6)):
            from_str, read = make("XXZZ"), make(setting)
            assert from_str.setting == setting and np.array_equal(from_str.counts, read.counts)

    @pytest.mark.parametrize(
        "call",
        [born_distribution, lambda state, s: sample_counts(state, s, 100, 0), lambda state, s: exact_record(state, s)],
        ids=["born_distribution", "sample_counts", "exact_record"],
    )
    def test_a_bad_setting_is_named(self, call):
        with pytest.raises(ValueError, match="^invalid setting 'XXQZ'$"):
            call(cluster4(), "XXQZ")
        for bad in (3, None, ["X", "X", "Z", "Z"]):
            with pytest.raises(TypeError, match="^" + re.escape(f"unsupported setting type {type(bad)}") + "$"):
                call(cluster4(), bad)

    @pytest.mark.parametrize("state", [cluster4(), cluster4().to_density()])
    def test_wrong_length_setting_named(self, state):
        with pytest.raises(ValueError, match="setting 'XXZ' does not match a register of 4 qubits"):
            born_distribution(state, TomographicSetting("XXZ"))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_blocks_match_whole_einsum(self, n, rng):
        """Up to n = 8 (four 64-row blocks of bras): bit for bit, signed zeros included."""
        pure = random_pure_state(n, rng)
        noisy = apply_noise(PureState.from_amplitudes(np.ones(2**n)), NoiseSpec("dephase", 0.1))
        for state in (pure, noisy, random_density_matrix(n, rng), DensityMatrix.maximally_mixed(n)):
            setting = random_setting(n, rng)
            assert bitwise_equal(born_distribution(state, setting), whole_born(state, setting.bases))

    def test_entries_below_the_branch_threshold_keep_their_bits(self):
        """The 1e-12 floor on a usable branch does not reach Born vectors: a
        linear cluster's rounding-level entries stay as whole_born has them."""
        state = PureState.from_amplitudes(np.ones(2**8))
        for q in range(1, 8):
            state = apply_gate(state, CZ, [q, q + 1])
        probs = born_distribution(state, TomographicSetting("XZXZXZXZ"))
        assert ((probs > 0) & (probs < 1e-12)).sum() == 48
        assert bitwise_equal(probs, whole_born(state, "XZXZXZXZ"))


class TestBornMemo:
    """born_distribution, sample_counts and exact_record read the all-qubit
    branch table of the setting, `states._branches`, through its content-keyed
    memo."""

    def test_hit_equals_fresh_computation(self, rng, memo):
        rho, setting = random_density_matrix(5, rng), random_setting(5, rng)
        first = born_distribution(rho, setting)
        hit = born_distribution(rho, setting)
        assert (memo.misses["_branches"], memo.hits["_branches"]) == (1, 1)
        memo.clear()
        fresh = born_distribution(rho, setting)
        assert memo.misses["_branches"] == 2
        assert bitwise_equal(first, hit) and bitwise_equal(hit, fresh)
        assert bitwise_equal(fresh, whole_born(rho, setting.bases))

    def test_caller_mutation_does_not_reach_the_memo(self, rng):
        state, setting = random_pure_state(4, rng), random_setting(4, rng)
        probs = born_distribution(state, setting)
        assert probs.flags.writeable
        probs[:] = 0.0
        assert bitwise_equal(born_distribution(state, setting), whole_born(state, setting.bases))

    @pytest.mark.parametrize("mixed_first", [True, False])
    def test_pure_and_mixed_of_equal_bytes_do_not_collide(self, mixed_first, rng, memo):
        """A pure rho's entries, flattened, are a unit vector: a pure state on
        2n qubits with the same bytes as the n-qubit density matrix."""
        rho = random_pure_state(3, rng).to_density()
        pure = PureState(6, rho.entries.reshape(-1))
        assert pure.amplitudes.tobytes() == rho.entries.tobytes()
        cases = [(rho, TomographicSetting("XYZ")), (pure, TomographicSetting("XYZXYZ"))]
        for state, setting in cases if mixed_first else cases[::-1]:
            assert bitwise_equal(born_distribution(state, setting), whole_born(state, setting.bases))
        assert memo.misses["_branches"] == 2 and not memo.hits

    def test_altered_array_gets_a_fresh_vector(self, rng, memo):
        rho, setting = random_density_matrix(4, rng), random_setting(4, rng)
        before = born_distribution(rho, setting)
        rho.entries.flags.writeable = True
        rho.entries[:] = np.eye(16) / 16
        rho.entries.flags.writeable = False
        after = born_distribution(rho, setting)
        assert memo.misses["_branches"] == 2 and not memo.hits
        assert not np.array_equal(before, after)
        assert bitwise_equal(after, np.full(16, 1 / 16))

    @pytest.mark.parametrize("n", [2, 6])
    def test_sample_counts_draws_from_born_distribution(self, n, rng, memo):
        rho = apply_noise(random_pure_state(n, rng), NoiseSpec("white", 0.8))
        setting = random_setting(n, rng)
        for total, seed in ((1, 0), (12345, 7), (10**9, 2**40)):
            expected = np.random.default_rng(seed).multinomial(total, born_distribution(rho, setting))
            assert np.array_equal(sample_counts(rho, setting, total, seed).counts, expected)

    def test_exact_record_uses_the_same_vector(self, rng):
        state, setting = random_density_matrix(3, rng), random_setting(3, rng)
        record = exact_record(state, setting, total=10**6)
        assert np.array_equal(record.counts, np.rint(whole_born(state, setting.bases) * 10**6))

    def test_memo_is_bounded(self, rng, memo):
        """At most _MEMO_BYTES are held, each entry counted as its arrays'
        bytes but at least 4 KiB; a larger entry is kept, alone."""
        setting, budget = TomographicSetting("XZ"), states._MEMO_BYTES
        for _ in range(3 * budget // 4096):
            born_distribution(random_pure_state(2, rng), setting)
        assert memo.misses["_branches"] == 3 * budget // 4096
        assert sum(size for _, size in memo.values()) <= budget == 1 << 20
        assert len(memo) == 256
        for (branch_states, probs), size in memo.values():  # a Born entry holds 24 * 2^n bytes
            assert branch_states.shape == (2**2, 1) and probs.shape == (2**2,)
            assert not branch_states.flags.writeable and not probs.flags.writeable
            assert branch_states.nbytes + probs.nbytes == 24 * 2**2 and size == 4096
        big = random_pure_state(17, rng)  # one step leaves two 2^16-amplitude branches, 2 MiB
        measure(big, 1, LocalBasis("Z"), select=0)
        ((branch_states, probs), size), = memo.values()
        assert size == branch_states.nbytes + probs.nbytes > budget
        assert not branch_states.flags.writeable and not probs.flags.writeable
        born_distribution(random_pure_state(2, rng), setting)
        assert [size for _, size in memo.values()] == [4096]

    def test_sample_counts_hits_after_born_distribution(self, rng, memo):
        rho, setting = random_density_matrix(4, rng), random_setting(4, rng)
        born_distribution(rho, setting)
        sample_counts(rho, setting, 1000, seed=1)
        exact_record(rho, setting)
        steps = tuple((q, LocalBasis(b)) for q, b in enumerate(setting.bases, 1))
        assert [key[1] for key in memo] == [steps]  # one contraction, of this setting
        assert (memo.misses["_branches"], memo.hits["_branches"]) == (1, 2)

    def test_checks_run_on_a_hit(self):
        born_distribution(cluster4(), TomographicSetting("XXZZ"))
        with pytest.raises(ValueError, match="does not match a register of 4 qubits"):
            sample_counts(cluster4(), TomographicSetting("XXZ"), 10, seed=0)
        with pytest.raises(TypeError, match="unsupported state type"):
            exact_record(cluster4().amplitudes, TomographicSetting("XXZZ"))
        with pytest.raises(TypeError, match=wrong_type(cluster4().amplitudes)):
            born_distribution(cluster4().amplitudes, TomographicSetting("XXZZ"))


class TestSampling:
    def test_counts_sum_to_total(self):
        rec = sample_counts(cluster4(), TomographicSetting("XXZZ"), 5000, seed=1)
        assert rec.total == 5000

    def test_support_restricted_to_born_support(self):
        setting = TomographicSetting("XXZZ")
        rec = sample_counts(cluster4(), setting, 10000, seed=3)
        support = {outcome_string(setting, i) for i in np.nonzero(rec.counts)[0]}
        assert support <= {"++HH", "+-VV", "-+VV", "--HH"}

    def test_deterministic_given_seed(self):
        a = sample_counts(cluster4(), TomographicSetting("ZZXX"), 1000, seed=9)
        b = sample_counts(cluster4(), TomographicSetting("ZZXX"), 1000, seed=9)
        assert np.array_equal(a.counts, b.counts)

    def test_five_sigma_consistency(self):
        # every outcome frequency within 5 sigma of its Born probability
        n = 10**5
        for bases in ("XXZZ", "ZZXX", "YYZZ", "ZZYY"):
            setting = TomographicSetting(bases)
            probs = born_distribution(cluster4(), setting)
            rec = sample_counts(cluster4(), setting, n, seed=2024)
            freqs = rec.counts / n
            for p, f in zip(probs, freqs):
                sigma = math.sqrt(p * (1 - p) / n)
                assert abs(f - p) <= 5 * sigma if sigma > 0 else f == p

    def test_total_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_counts(cluster4(), TomographicSetting("XXZZ"), 0, seed=0)

    def test_total_above_c_long_named(self):
        setting = TomographicSetting("XXZZ")
        assert sample_counts(cluster4(), setting, 2**63 - 1, seed=0).total == 2**63 - 1
        for total in (2**63, 10**23):
            with pytest.raises(ValueError, match=f"^total {total} exceeds 2\\*\\*63 - 1$"):
                sample_counts(cluster4(), setting, total, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExactRecordTotal:
    """exact_record rejects sample_counts' bad totals with its messages, and
    rounds with no float cast past int64 (numpy warns on one: warnings are
    errors here)."""

    @pytest.mark.parametrize(
        "total,message",
        [(0, "^total must be at least 1$"), (2**63, "^total 9223372036854775808 exceeds 2\\*\\*63 - 1$"),
         (10**20, "^total 100000000000000000000 exceeds 2\\*\\*63 - 1$")],
    )
    def test_total_outside_int64_named(self, total, message):
        with pytest.raises(ValueError, match=message):
            exact_record(cluster4(), TomographicSetting("XXZZ"), total)

    def test_certain_outcome_at_int64_limit(self):
        # rint(1.0 * (2**63 - 1)) is 2.0**63: CountRecord's range error, naming the setting
        with pytest.raises(ValueError, match="^setting Z: counts must lie in 0..2\\*\\*63 - 1$"):
            exact_record(PureState.from_amplitudes([1, 0]), TomographicSetting("Z"), total=2**63 - 1)

    def test_large_total_kept(self):
        record = exact_record(cluster4(), TomographicSetting("XXZZ"), total=2**62)
        assert record.total == 2**62 and sorted(record.counts.tolist())[-4:] == [2**60] * 4


class TestProbabilities:
    def test_ideal_xxzz_shape(self):
        rec = exact_record(cluster4(), TomographicSetting("XXZZ"))
        probs = probabilities(rec)
        assert np.count_nonzero(probs) == 4
        assert np.allclose(probs[probs > 0], 0.25)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_outcome(self):
        counts = np.zeros(16, dtype=int)
        counts[5] = 7
        probs = probabilities(CountRecord(TomographicSetting("ZZZZ"), counts))
        assert probs[5] == 1.0
        assert probs.sum() == 1.0

    def test_uniform(self):
        rec = CountRecord(TomographicSetting("ZZZZ"), np.full(16, 4))
        assert np.allclose(probabilities(rec), 1 / 16)

    def test_zero_total(self):
        rec = CountRecord(TomographicSetting("ZZXX"), np.zeros(16, dtype=int))
        for call in (lambda: probabilities(rec), lambda: expectation_from_counts(rec, "ZZII")):
            # a ValueError that names the setting
            with pytest.raises(ZeroCountsError, match="setting ZZXX has zero total counts"):
                call()


class TestExpectationFromCounts:
    def test_ideal_value_and_sigma(self):
        rec = exact_record(cluster4(), TomographicSetting("XXZZ"))
        value, sigma = expectation_from_counts(rec, "XXZI")
        assert value == pytest.approx(1.0, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_uniform_counts_give_zero(self):
        rec = CountRecord(TomographicSetting("XXZZ"), np.full(16, 100))
        value, _ = expectation_from_counts(rec, "XXZI")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_incompatible_word(self):
        rec = exact_record(cluster4(), TomographicSetting("XXZZ"))
        with pytest.raises(ValueError):
            expectation_from_counts(rec, "YYZI")
        with pytest.raises(ValueError, match="^term 'XXZ' has 3 qubits; the records' settings have 4$"):
            expectation_from_counts(rec, "XXZ")

    def test_sigma_calibration(self):
        # empirical spread over resamples matches the reported sigma: one term
        # over 200 resamples, then B2 and B4, whose terms read from one record
        # are correlated, over 500 (the spread of a 500-sample std is ~3%)
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        setting = TomographicSetting("XXZZ")
        values, sigmas = [], []
        for seed in range(200):
            rec = sample_counts(rho, setting, 2000, seed=seed)
            v, s = expectation_from_counts(rec, "XXZI")
            values.append(v)
            sigmas.append(s)
        empirical = float(np.std(values))
        reported = float(np.mean(sigmas))
        assert abs(empirical - reported) / reported < 0.2
        for b in (build_b2(), build_b4()):
            settings = required_settings(b)
            values, sigmas = [], []
            for seed in range(500):
                records = [sample_counts(rho, st, 2000, seed=10 * seed + i) for i, st in enumerate(settings)]
                v, s = witness_from_counts(records, b)
                values.append(v)
                sigmas.append(s)
            empirical = float(np.std(values))
            reported = float(np.mean(sigmas))
            assert abs(empirical - reported) / reported < 0.1, (len(settings), empirical, reported)

    def test_fidelity_sigma_at_paper_scale(self):
        # F from its nine settings and B4 from its four, 210 events per
        # setting as in the experiment, over 300 resamples
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        for b in (build_fidelity(), build_b4()):
            settings = required_settings(b)
            values, sigmas = [], []
            for seed in range(300):
                records = [sample_counts(rho, st, 210, seed=10 * seed + i) for i, st in enumerate(settings)]
                v, s = witness_from_counts(records, b)
                values.append(v)
                sigmas.append(s)
            empirical = float(np.std(values, ddof=1))
            reported = float(np.mean(sigmas))
            assert abs(empirical - reported) / reported < 0.1, (len(settings), empirical, reported)


class TestPerTermOracle:
    """The one estimator against the term-by-term one (conftest): the same
    values, the same sigma for one term, and for a sum of terms the sigma of
    the multinomial covariance of the terms' signs."""

    SETTINGS = ("XXZZ", "ZZXX", "YYZZ", "ZZYY")

    def random_records(self, rng):
        return [CountRecord(TomographicSetting(s), rng.integers(0, 1000, 16)) for s in self.SETTINGS]

    def test_witness_values_match(self, rng):
        for _ in range(50):
            records = self.random_records(rng)
            for b in (build_b2(), build_b4()):
                assert witness_from_counts(records, b)[0] == pytest.approx(per_term_bound(records, b)[0], abs=1e-12)

    def test_single_word_value_and_sigma_unchanged(self, rng):
        for _ in range(50):
            rec = self.random_records(rng)[int(rng.integers(4))]
            word = "".join(c if keep else "I" for c, keep in zip(rec.setting.bases, rng.integers(0, 2, 4)))
            got = expectation_from_counts(rec, word)
            assert got == pytest.approx(per_term_expectation(rec.counts, word), abs=1e-12)
            one_term = ObservableSum((PauliString(word),))
            assert witness_from_counts([rec], one_term) == pytest.approx(got, abs=1e-12)

    def test_sigma_is_the_covariance_form(self, rng):
        # variance = sum over records of c^T C c / N for the terms that read
        # the record, C[a, b] = E[s_a s_b] - E[s_a] E[s_b] over its outcomes
        for _ in range(20):
            records = self.random_records(rng)
            for b in (build_b2(), build_b4()):
                reader = {t: next(r for r in records if r.setting.covers(t.word)) for t in b.terms}
                variance = 0.0
                for rec in records:
                    terms = [t for t in b.terms if reader[t] is rec]
                    if not terms:
                        continue
                    supports = [t.word.translate(str.maketrans("XY", "ZZ")) for t in terms]
                    signs = np.array([dense_pauli(w).diagonal().real for w in supports])
                    c = np.array([t.coefficient for t in terms])
                    p = rec.counts / rec.total
                    cov = (signs * p) @ signs.T - np.outer(signs @ p, signs @ p)
                    variance += c @ cov @ c / rec.total
                assert witness_from_counts(records, b)[1] == pytest.approx(math.sqrt(variance), rel=1e-9)


class TestWitnessFromCounts:
    def test_exact_records_match_dense_expectation(self):
        for b in (build_b2(), build_b4()):
            records = [exact_record(cluster4(), s) for s in required_settings(b)]
            bound, sigma = witness_from_counts(records, b)
            assert bound == pytest.approx(witness_expectation(cluster4(), b), abs=1e-12)
            assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_exact_noisy_records_match_dense(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.62))
        b4 = build_b4()
        records = [exact_record(rho, s) for s in required_settings(b4)]
        bound, _ = witness_from_counts(records, b4)
        assert bound == pytest.approx(witness_expectation(rho, b4), abs=1e-6)

    @pytest.mark.parametrize("spec", ["white:0.86", "dephase:0.05:1,2"])
    def test_fidelity_from_exact_records(self, spec):
        rho, f = apply_noise(cluster4(), NoiseSpec.parse(spec)), build_fidelity()
        records = [exact_record(rho, s) for s in required_settings(f)]
        assert witness_from_counts(records, f)[0] == pytest.approx(witness_expectation(rho, f), abs=1e-6)

    def test_sampled_bound_statistically_consistent(self):
        rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
        records = [
            sample_counts(rho, s, 10**5, seed=41 + i)
            for i, s in enumerate(required_settings(build_b4()))
        ]
        bound, sigma = witness_from_counts(records, build_b4())
        assert abs(bound - 0.86) <= 3 * sigma

    def test_maximally_mixed_b2(self):
        mm = DensityMatrix.maximally_mixed(4)
        records = [exact_record(mm, s) for s in required_settings(build_b2())]
        bound, _ = witness_from_counts(records, build_b2())
        assert bound == pytest.approx(-0.5, abs=1e-9)

    def test_missing_setting(self):
        records = [exact_record(cluster4(), TomographicSetting("XXZZ"))]
        with pytest.raises(ValueError):
            witness_from_counts(records, build_b4())

    def test_zero_counts_only_in_a_record_read(self):
        records = [exact_record(cluster4(), s) for s in required_settings(build_b2())]
        unread = CountRecord(TomographicSetting("YYZZ"), np.zeros(16, dtype=int))
        assert witness_from_counts(records + [unread], build_b2()) == witness_from_counts(records, build_b2())
        with pytest.raises(ZeroCountsError, match="setting YYZZ has zero total counts"):
            witness_from_counts(records[:1] + [unread] + records[1:], build_b4())

    def test_shared_settings_aggregated(self):
        setting = TomographicSetting("XXZZ")
        half1 = sample_counts(cluster4(), setting, 500, seed=5)
        half2 = sample_counts(cluster4(), setting, 500, seed=6)
        merged = CountRecord(setting, half1.counts + half2.counts)
        others = [exact_record(cluster4(), TomographicSetting(s)) for s in ("ZZXX",)]
        split_bound, _ = witness_from_counts([half1, half2] + others, build_b2())
        merged_bound, _ = witness_from_counts([merged] + others, build_b2())
        assert split_bound == pytest.approx(merged_bound, abs=1e-12)

    def test_shared_settings_past_int64_rejected(self):
        setting = TomographicSetting("XXZZ")
        others = [exact_record(cluster4(), TomographicSetting("ZZXX"))]
        one = CountRecord(setting, [2**62] + [0] * 15)
        with pytest.raises(ValueError, match="^setting XXZZ: counts must lie in 0..2\\*\\*63 - 1$"):
            witness_from_counts([one, one] + others, build_b2())
        spread = CountRecord(setting, [0, 2**62, 2**62 - 1] + [0] * 13)
        with pytest.raises(ValueError, match="^setting XXZZ: total count exceeds 2\\*\\*63 - 1$"):
            witness_from_counts([spread, one] + others, build_b2())


class TestCountRecordRange:
    """Counts are int64: a count or a total past 2**63 - 1 is a ValueError, never a wrap."""

    def test_count_past_int64_rejected(self):
        with pytest.raises(ValueError, match="^setting Z: counts must lie in 0..2\\*\\*63 - 1$"):
            CountRecord(TomographicSetting("Z"), [10**23, 0])

    def test_total_past_int64_rejected(self):
        with pytest.raises(ValueError, match="^setting ZX: total count exceeds 2\\*\\*63 - 1$"):
            CountRecord(TomographicSetting("ZX"), [2**62, 2**62, 0, 0])

    def test_total_at_int64_limit_kept(self):
        record = CountRecord(TomographicSetting("Z"), [2**63 - 2, 1])
        assert record.total == 2**63 - 1 and record.counts.dtype == np.int64

    def test_total_is_stored_once(self):
        record = CountRecord(TomographicSetting("ZX"), [3, 0, 2**62, 5])
        assert vars(record)["total"] == 2**62 + 8 and type(record.total) is int
        with pytest.raises(AttributeError):
            record.total = 0
        with pytest.raises(TypeError):
            CountRecord(TomographicSetting("Z"), [1, 2], total=3)


class TestCsv:
    def test_round_trip(self):
        records = [
            sample_counts(cluster4(), TomographicSetting(s), 1000, seed=i)
            for i, s in enumerate(("XXZZ", "ZZXX", "YYZZ", "ZZYY"))
        ]
        again = parse_counts(serialize_counts(records))
        assert len(again) == 4
        for a, b in zip(records, again):
            assert a.setting == b.setting
            assert np.array_equal(a.counts, b.counts)

    def test_simple_line(self):
        text = "setting,outcome,count\nXXZZ,++HH,250\n"
        records = parse_counts(text)
        assert len(records) == 1
        assert records[0].counts[outcome_index(TomographicSetting("XXZZ"), "++HH")] == 250

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            parse_counts("setting,outcome,count\nXXZZ,++HH,-3\n")

    def test_unknown_basis_letter_rejected(self):
        with pytest.raises(ValueError):
            parse_counts("setting,outcome,count\nXXQZ,++HH,3\n")

    def test_wrong_outcome_letters_rejected(self):
        with pytest.raises(ValueError):
            parse_counts("setting,outcome,count\nXXZZ,RRHH,3\n")

    @pytest.mark.parametrize(
        "row,message",
        [
            ("xxzz,++HH,3", "invalid setting 'xxzz'"),
            ("XXZZ,++HQ,3", "outcome letter 'Q' invalid for basis Z"),
            ("XXZZ,++H,3", "outcome '\\+\\+H' has wrong length"),
            ("XXZZ,++HH,3.5", "count '3.5' is not an integer"),
            ("X" * 26 + "," + "+" * 26 + ",1", "a setting on 26 qubits exceeds the limit of 16"),
        ],
    )
    def test_errors_name_the_line(self, row, message):
        with pytest.raises(ValueError, match=f"^line 3: {message}$"):
            parse_counts(f"setting,outcome,count\nXXZZ,--VV,1\n{row}\n")

    def test_rows_equal_the_per_row_writer(self, rng):
        records = [
            CountRecord(TomographicSetting(s), rng.integers(0, 10**6, size=2 ** len(s)))
            for s in ("Z", "XY", "YXZ", "ZZXX", "XYZXY", "YYYYYYYYYY")
        ]
        rows = ["setting,outcome,count"] + [
            f"{rec.setting.bases},{outcome_string(rec.setting, i)},{int(c)}"
            for rec in records for i, c in enumerate(rec.counts)
        ]
        text = serialize_counts(records)
        assert text == "\n".join(rows) + "\n"
        again = parse_counts(text)
        assert [(r.setting, r.counts.tolist()) for r in again] == [(r.setting, r.counts.tolist()) for r in records]

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_counts("XXZZ,++HH,3\n")

    def test_repeated_rows_aggregate(self):
        text = "setting,outcome,count\nXXZZ,++HH,100\nXXZZ,++HH,50\n"
        records = parse_counts(text)
        idx = outcome_index(TomographicSetting("XXZZ"), "++HH")
        assert records[0].counts[idx] == 150

    @pytest.mark.parametrize(
        "rows,line",
        [
            (["XXZZ,++HH,100000000000000000000000"], 2),
            (["XXZZ,++HH,9223372036854775807", "XXZZ,++HH,1"], 3),
            (["XXZZ,++HH,4611686018427387904", "XXZZ,--HH,4611686018427387904"], 3),
            (["XXZZ,++HH,5", "ZZXX,HH++,9223372036854775807", "XXZZ,--HH,9223372036854775803"], 4),
        ],
    )
    def test_total_past_int64_names_the_line(self, rows, line):
        text = "\n".join(["setting,outcome,count", *rows]) + "\n"
        with pytest.raises(ValueError, match=f"^line {line}: setting .*'s total count exceeds 2\\*\\*63 - 1$"):
            parse_counts(text)

    def test_total_at_int64_limit_is_kept(self):
        text = "setting,outcome,count\nXXZZ,++HH,9223372036854775806\nXXZZ,--HH,1\n"
        (record,) = parse_counts(text)
        assert record.total == 2**63 - 1
        assert record.counts.max() == 2**63 - 2

    def test_outcome_index_out_of_range(self):
        """An index outside 0..2^n - 1 is an error, not the label of index mod 2^n."""
        setting = TomographicSetting("XXZZ")
        assert outcome_string(setting, np.int64(15)) == "--VV"
        for index in (16, -1, -16, 2**40):
            with pytest.raises(ValueError, match=rf"^outcome index {index} out of range 0\.\.15$"):
                outcome_string(setting, index)

    def test_outcome_labels(self):
        setting = TomographicSetting("YXZY")
        assert outcome_string(setting, 0) == "R+HR"
        assert outcome_string(setting, 15) == "L-VL"
        assert outcome_index(setting, "R+HR") == 0
