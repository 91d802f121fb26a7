"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`."""

import math

import numpy as np
import pytest

from clustersim.classical_bound import classical_bound, margin_report
from clustersim.counts import born_distribution, outcome_string, sample_counts, witness_from_counts
from clustersim.entclass import fidelity_ceiling, rank_signature
from clustersim.mbqc import (
    SINGLE_QUBIT_INSTRUCTIONS,
    TWO_QUBIT_INSTRUCTIONS,
    execute,
    single_rotation_pattern,
    target_single,
    target_two_qubit,
    two_qubit_pattern,
)
from clustersim.noise import NoiseSpec, apply_noise
from clustersim.states import (
    DensityMatrix,
    LocalBasis,
    cluster4,
    fidelity,
    measure,
    named_state,
)
from clustersim.witness import (
    TomographicSetting,
    build_b2,
    build_b4,
    required_settings,
    verify_dominance,
    witness_expectation,
)
from conftest import random_pure_state, stirling2

COS2_PI8 = math.cos(math.pi / 8) ** 2


def report(number, description, passed):
    print(f"ACCEPTANCE {number:2d}: {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_witness_dominance():
    ok = (
        verify_dominance(build_b2(), cluster4()) >= -1e-10
        and verify_dominance(build_b4(), cluster4()) >= -1e-10
    )
    report(1, "cluster projector dominates both bound observables", ok)


def test_criterion_2_ideal_witness_values():
    c4 = cluster4()
    mm = DensityMatrix.maximally_mixed(4)
    ok = (
        abs(witness_expectation(c4, build_b2()) - 1) < 1e-12
        and abs(witness_expectation(c4, build_b4()) - 1) < 1e-12
        and abs(witness_expectation(mm, build_b2()) + 0.5) < 1e-12
        and abs(witness_expectation(mm, build_b4())) < 1e-12
    )
    report(2, "ideal witness values on cluster and maximally mixed state", ok)


def test_criterion_3_noise_linearity_anchor():
    rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
    b4_value = witness_expectation(rho, build_b4())
    b2_value = witness_expectation(rho, build_b2())
    ok = (
        abs(b4_value - 0.860) < 1e-12
        and abs(b2_value - 0.790) < 1e-12
        and abs(b4_value - 0.860) <= 0.015
        and abs(b2_value - 0.791) <= 0.030
    )
    report(3, "white-noise p=0.86 reproduces the measured bounds", ok)


def test_criterion_4_rank_signatures():
    ok = (
        tuple(rank_signature(cluster4())) == (2, 4, 4)
        and tuple(rank_signature(named_state("ghz4"))) == (2, 2, 2)
        and tuple(rank_signature(named_state("w4"))) == (2, 2, 2)
        and tuple(rank_signature(named_state("dicke4"))) == (3, 3, 3)
    )
    report(4, "rank signatures (2,4,4), (2,2,2), (3,3,3)", ok)


def test_criterion_5_fidelity_ceilings():
    ok = all(
        abs(fidelity_ceiling(cluster4(), part, 2) - 0.5) < 1e-12
        and abs(fidelity_ceiling(cluster4(), part, 3) - 0.75) < 1e-12
        for part in ({1, 3}, {1, 4})
    )
    report(5, "fidelity ceilings 1/2 (rank 2) and 3/4 (rank 3)", ok)


def test_criterion_6_two_qubit_table():
    checks = 0
    ok = True
    for instr in TWO_QUBIT_INSTRUCTIONS:
        pattern = two_qubit_pattern(instr)
        target = target_two_qubit(instr)
        for i in range(4):
            out, _, _ = execute(pattern, cluster4(), branch=format(i, "02b"))
            ok &= fidelity(out, target) >= 1 - 1e-9
            checks += 1
    ok &= checks == 32
    report(6, "all 8 two-qubit instructions deterministic over 4 branches (32 checks)", ok)


def test_criterion_7_single_rotation_table():
    checks = 0
    ok = True
    for instr in SINGLE_QUBIT_INSTRUCTIONS:
        pattern = single_rotation_pattern(instr)
        target = target_single(instr)
        for i in range(8):
            out, _, _ = execute(pattern, cluster4(), branch=format(i, "03b"))
            ok &= fidelity(out, target) >= 1 - 1e-9
            checks += 1
    ok &= checks == 48
    report(7, "all 6 single-qubit instructions deterministic over 8 branches", ok)


def test_criterion_8_classical_bounds():
    two_qubit_targets = [target_two_qubit(i) for i in TWO_QUBIT_INSTRUCTIONS]
    single_targets = [target_single(i) for i in SINGLE_QUBIT_INSTRUCTIONS]
    v2, _ = classical_bound(two_qubit_targets, bits=2)
    v1, _ = classical_bound(single_targets, bits=2)
    ok = (
        abs(v2 - COS2_PI8) < 1e-9
        and abs(v1 - (1 / 3 + 2 / 3 * COS2_PI8)) < 1e-9
        and abs(margin_report(0.895, 0.010, v2) - 4.1) <= 0.1
        and abs(margin_report(0.926, 0.010, v1) - 2.4) <= 0.1
    )
    report(8, "classical bounds cos^2(pi/8) and 1/3+(2/3)cos^2(pi/8), margins +4.1/+2.4 sigma", ok)


def test_criterion_9_coincidence_shapes():
    ok = True
    expected_support = {
        "XXZZ": {"++HH", "+-VV", "-+VV", "--HH"},
        "ZZXX": {"HH++", "HH--", "VV+-", "VV-+"},
    }
    n = 10**5
    for bases, support in expected_support.items():
        setting = TomographicSetting(bases)
        probs = born_distribution(cluster4(), setting)
        nonzero = {outcome_string(setting, i) for i in np.nonzero(probs > 1e-12)[0]}
        ok &= nonzero == support
        ok &= np.allclose(probs[probs > 1e-12], 0.25, atol=1e-12)
        rec = sample_counts(cluster4(), setting, n, seed=99)
        for p, f in zip(probs, rec.counts / n):
            sigma = math.sqrt(p * (1 - p) / n)
            ok &= abs(f - p) <= 5 * sigma if sigma > 0 else f == p
    report(9, "ideal coincidence distributions (4 x 1/4) and 5-sigma sampling", ok)


def test_criterion_10_property_suites(rng):
    ok = True
    # norm preservation / Born completeness on random states
    for _ in range(20):
        state = random_pure_state(4, rng)
        basis = LocalBasis("planar_std", rng.uniform(0, 2 * math.pi))
        qubit = int(rng.integers(1, 5))
        total = 0.0
        for bit in (0, 1):
            try:
                p, _, _ = measure(state, qubit, basis, select=bit)
            except ValueError:
                p = 0.0
            total += p
        ok &= abs(total - 1.0) < 1e-12
        ok &= abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
    # branch probabilities of each pattern sum to 1
    pattern = two_qubit_pattern(TWO_QUBIT_INSTRUCTIONS[1])
    total = sum(execute(pattern, cluster4(), branch=format(i, "02b"))[2] for i in range(4))
    ok &= abs(total - 1.0) < 1e-12
    # sigma calibration at 20% relative over 200 resamples
    from clustersim.counts import expectation_from_counts

    rho = apply_noise(cluster4(), NoiseSpec("white", 0.86))
    setting = TomographicSetting("XXZZ")
    values, sigmas = [], []
    for seed in range(200):
        rec = sample_counts(rho, setting, 2000, seed=seed)
        v, s = expectation_from_counts(rec, "XXZI")
        values.append(v)
        sigmas.append(s)
    ok &= abs(np.std(values) - np.mean(sigmas)) / np.mean(sigmas) < 0.2
    # ... and at 10% over 500 resamples for B2 and B4, whose terms share records
    for b in (build_b2(), build_b4()):
        settings = required_settings(b)
        values, sigmas = [], []
        for seed in range(500):
            records = [sample_counts(rho, st, 2000, seed=10 * seed + i) for i, st in enumerate(settings)]
            v, s = witness_from_counts(records, b)
            values.append(v)
            sigmas.append(s)
        ok &= abs(np.std(values) - np.mean(sigmas)) / np.mean(sigmas) < 0.1
    # partition count
    ok &= sum(stirling2(8, k) for k in range(1, 5)) == 2795
    report(10, "property suites (norm, Born, branches, term/B2/B4 sigma calibration, S(8,<=4)=2795)", ok)
