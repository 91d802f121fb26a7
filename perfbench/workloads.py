"""The four benchmark workloads: seeded op generation, the timed ops and
their output checks.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  Ops come in *cycles*, fixed-composition blocks
whose contents are drawn from the seed, so that every seed sees the same
mix of sizes and code paths and only the data differ.  A run executes
whole cycles.

`tail_q` is the fixed share of a run's ops at or below `op_tail_ms`.  It
is chosen so that at least 10 ops lie beyond it in a typical run at the
seed commit, and it is a property of the cycle, not of the run length: a
change that lets a run complete more cycles reads the tail at the same
percentile, and so from the same class of ops.

`run(op, t)` makes the timed calls into the library, each through
`t.call(span_name, fn, ...)`.  `check(op, raw)` runs outside the timed
region, raises `CheckError` if an analytic invariant fails and returns a
JSON-able record that is compared against the stored golden outputs for
the golden seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import clustersim as cs

# Angle grid for both MBQC tasks; every point derives a valid feedforward
# table and the grid contains all 8 + 6 instructions of the paper's tables.
GRID = (0.0, math.pi / 2, -math.pi / 2, math.pi)
GRID_NAMES = {0.0: "0", math.pi / 2: "pi/2", -math.pi / 2: "-pi/2", math.pi: "pi"}
INSTRUCTIONS = tuple(cs.GateInstruction(a, b) for a in GRID for b in GRID)

COS2_PI_8 = math.cos(math.pi / 8) ** 2
SINGLE_BOUND = 0.902  # the paper's rounded value for the six single-qubit targets
WARMUP_CYCLE = 2**31  # rng stream for warm-up ops, disjoint from timed cycles

CLUSTER_SIGNATURES = {"cluster4": (2, 4, 4), "ghz4": (2, 2, 2), "w4": (2, 2, 2), "dicke4": (3, 3, 3)}
# fidelity_ceiling(cluster4, cut, k) for k = 1..4
CLUSTER_CEILINGS = {"12": (0.5, 1.0, 1.0, 1.0), "13": (0.25, 0.5, 0.75, 1.0), "14": (0.25, 0.5, 0.75, 1.0)}


class CheckError(Exception):
    """An op returned without raising but its output is wrong."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def close(a, b, tol=1e-9) -> bool:
    return abs(a - b) <= tol


@dataclass
class Op:
    tag: str | None  # size tag appended to per-function metrics, e.g. "n10"
    spec: dict


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _roundtrip_ok(original, parsed) -> bool:
    return len(original) == len(parsed) and all(
        a.setting == b.setting and np.array_equal(a.counts, b.counts)
        for a, b in zip(original, parsed)
    )


def _check_grouping(targets, bits, value, strategy):
    """A grouping covers each target once, uses at most 2^bits blocks and
    recomputes to the returned value."""
    n = len(targets)
    flat = sorted(i for g in strategy.groups for i in g)
    expect(flat == list(range(n)), f"grouping does not cover each target once: {strategy.groups}")
    expect(len(strategy.groups) <= 2**bits, "grouping uses more than 2^bits blocks")
    expect(len(strategy.prepared_states) == len(strategy.groups), "one prepared state per block")
    recomputed = sum(
        len(g) * cs.optimal_group_state([targets[i] for i in g])[1] for g in strategy.groups
    ) / n
    expect(close(recomputed, value), f"grouping recomputes to {recomputed}, returned {value}")
    expect(close(strategy.average_fidelity, value), "strategy value differs from returned value")


def _spread(rng, long_ops, short_ops):
    """Shuffle the short ops and place the long ones evenly between them.

    Machine speed drifts over tens of seconds, so short ops are sampled on
    every side of each long op rather than in one stretch of time."""
    order = [short_ops[i] for i in rng.permutation(len(short_ops))]
    for k, op in enumerate(long_ops, 1):
        order.insert(k * len(short_ops) // (len(long_ops) + 1) + k - 1, op)
    return order


def _random_word(rng, n) -> str:
    while True:
        word = "".join(rng.choice(list("IXYZ"), size=n))
        if word.strip("I"):
            return word


def _random_state_amps(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def child_env() -> dict:
    """Environment for a fresh interpreter that imports this clustersim."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cs.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --- paper-chain -----------------------------------------------------------


class PaperChain:
    """One op is a full paper-scale analysis session for one noise spec."""

    name = "paper-chain"
    stream = 1
    # 4 like-cost sessions per cycle, 50-90 cycles per 30 s run.
    tail_q = Fraction(9, 10)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cluster = cs.cluster4()
        self.refs = {"cluster4": self.cluster}
        self.refs.update({name: cs.named_state(name) for name in ("ghz4", "w4", "dicke4")})
        self.b2, self.b4 = cs.build_b2(), cs.build_b4()
        self.b4_settings = cs.required_settings(self.b4)
        self.two_targets = [cs.target_two_qubit(i) for i in cs.TWO_QUBIT_INSTRUCTIONS]
        self.single_targets = [cs.target_single(i) for i in cs.SINGLE_QUBIT_INSTRUCTIONS]

    def _session(self, rng, kind, two, single):
        if kind == "white":
            noise = cs.NoiseSpec("white", float(rng.uniform(0.6, 1.0)))
        else:
            k = int(rng.integers(1, 5))
            qubits = tuple(sorted(int(q) + 1 for q in rng.choice(4, size=k, replace=False)))
            noise = cs.NoiseSpec("dephase", float(rng.uniform(0.0, 0.2)), qubits)
        return Op(None, {
            "noise": noise,
            "two": [INSTRUCTIONS[i] for i in two],
            "single": [INSTRUCTIONS[i] for i in single],
            "bases": [str(b) for b in rng.choice(list("XYZ"), size=4)],
            "shots": int(rng.integers(2000, 20001)),
            "count_seed": int(rng.integers(2**31)),
        })

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, self.stream, c])
        kinds = rng.permutation(["white", "white", "dephase", "dephase"])
        # Each cycle runs every grid instruction once per task, split
        # across its four sessions, so that every cycle does the same work.
        two = rng.permutation(16).reshape(4, 4)
        single = rng.permutation(16).reshape(4, 4)
        return [self._session(rng, str(k), t, s) for k, t, s in zip(kinds, two, single)]

    def warmup(self):
        return self.cycle(WARMUP_CYCLE)[:1]

    def run(self, op, t):
        s = op.spec
        r = {}
        rho = t.call(f"noise.{s['noise'].kind}", cs.apply_noise, self.cluster, s["noise"])
        r["b2"] = t.call("witness.expectation", cs.witness_expectation, rho, self.b2)
        r["b4"] = t.call("witness.expectation", cs.witness_expectation, rho, self.b4)
        r["fid"] = t.call("states.fidelity", cs.fidelity, rho, self.cluster)
        r["dominance"] = [
            t.call("witness.dominance", cs.verify_dominance, b, self.cluster) for b in (self.b2, self.b4)
        ]
        r["terms"] = [
            t.call("states.pauli_pure", cs.pauli_expectation, self.cluster, term)
            for term in self.b2.terms + self.b4.terms
        ]
        r["marginals"] = [
            t.call("states.measure", cs.measure, self.cluster, q, cs.LocalBasis(b), select=0)[0]
            for q, b in zip((1, 2, 3, 4), s["bases"])
        ]
        r["signatures"] = {
            name: tuple(t.call("entclass.signature", cs.rank_signature, state))
            for name, state in self.refs.items()
        }
        r["ceilings"] = {
            cut: tuple(
                t.call("entclass.ceiling", cs.fidelity_ceiling, self.cluster, part, k)
                for k in (1, 2, 3, 4)
            )
            for cut, part in cs.entclass.PAIR_PARTITIONS.items()
        }
        r["classified_at"] = min(1.0, max(0.0, r["b2"], r["b4"]))
        r["excluded"] = t.call("entclass.classify", cs.classify_by_fidelity, r["classified_at"])

        r["mbqc"] = []
        for build, instrs in ((cs.two_qubit_pattern, s["two"]), (cs.single_rotation_pattern, s["single"])):
            for instr in instrs:
                pattern = t.call("mbqc.derive", build, instr)
                m = len(pattern.steps)
                pure, probs, noisy = [], [], []
                for i in range(2**m):
                    branch = format(i, f"0{m}b")
                    out, _, prob = t.call("mbqc.execute", cs.execute, pattern, self.cluster, branch=branch)
                    pure.append(t.call("states.fidelity", cs.fidelity, out, pattern.target))
                    probs.append(prob)
                    dout, _, _ = t.call("mbqc.execute_density", cs.execute_density, pattern, rho, branch)
                    noisy.append(t.call("states.fidelity", cs.fidelity, dout, pattern.target))
                ok = t.call("mbqc.reassign", cs.basis_reassignment_check, pattern, self.cluster)
                r["mbqc"].append((pure, probs, noisy, ok))

        r["bound_two"] = t.call("classical_bound.solve", cs.classical_bound, self.two_targets, 2)
        r["bound_single"] = t.call("classical_bound.solve", cs.classical_bound, self.single_targets, 2)

        records = [
            t.call("counts.sample", cs.sample_counts, rho, setting, s["shots"], s["count_seed"] + i)
            for i, setting in enumerate(self.b4_settings)
        ]
        text = t.call("counts.serialize", cs.serialize_counts, records)
        parsed = t.call("counts.parse", cs.parse_counts, text)
        t.add("counts.parse_rows", sum(rec.counts.size for rec in records))
        r["records"], r["parsed"] = records, parsed
        r["count_b2"] = t.call("counts.witness", cs.witness_from_counts, parsed, self.b2)
        r["count_b4"] = t.call("counts.witness", cs.witness_from_counts, parsed, self.b4)
        return r

    def check(self, op, r):
        s = op.spec
        noise = s["noise"]
        if noise.kind == "white":
            expect(close(r["b4"], noise.p), f"white noise: B4 {r['b4']} != p {noise.p}")
            expect(close(r["b2"], 1.5 * noise.p - 0.5), f"white noise: B2 {r['b2']} != 1.5p - 0.5")
        expect(r["b2"] <= r["fid"] + 1e-9 and r["b4"] <= r["fid"] + 1e-9, "a witness exceeds the fidelity")
        expect(min(r["dominance"]) >= -1e-9, "cluster projector does not dominate a witness")
        expect(
            all(close(v, abs(term.coefficient)) for v, term in zip(r["terms"], self.b2.terms + self.b4.terms)),
            "an ideal cluster witness term is not at its maximum",
        )
        expect(all(close(p, 0.5) for p in r["marginals"]), "a single-qubit marginal of the cluster is not 1/2")
        expect(r["signatures"] == CLUSTER_SIGNATURES, f"rank signatures {r['signatures']}")
        expect(
            all(close(a, b) for cut, row in CLUSTER_CEILINGS.items() for a, b in zip(r["ceilings"][cut], row)),
            f"fidelity ceilings {r['ceilings']}",
        )
        f = r["classified_at"]
        expected = (["biseparable", "ghz-w"] if f > 0.5 else []) + (["dicke"] if f > 0.75 else [])
        expect(r["excluded"] == expected, f"classify_by_fidelity({f}) = {r['excluded']}")

        for pure, probs, noisy, ok in r["mbqc"]:
            expect(all(close(x, 1.0) for x in pure), f"pure-resource branch fidelities {pure}")
            expect(close(sum(probs), 1.0), "pure-resource branch probabilities do not sum to 1")
            expect(all(-1e-9 <= x <= 1 + 1e-9 for x in noisy), f"noisy branch fidelities {noisy}")
            expect(ok is True, "basis reassignment check failed")

        v2, g2 = r["bound_two"]
        v1, g1 = r["bound_single"]
        expect(close(v2, COS2_PI_8), f"two-qubit classical bound {v2} != cos^2(pi/8)")
        expect(abs(v1 - SINGLE_BOUND) < 5e-4, f"single-qubit classical bound {v1} != 0.902")
        _check_grouping(self.two_targets, 2, v2, g2)
        _check_grouping(self.single_targets, 2, v1, g1)

        expect(_roundtrip_ok(r["records"], r["parsed"]), "parse_counts(serialize_counts(r)) != r")
        expect(all(rec.total == s["shots"] for rec in r["parsed"]), "a record total differs from the shots")
        for (bound, sigma), exact in ((r["count_b2"], r["b2"]), (r["count_b4"], r["b4"])):
            expect(math.isfinite(bound) and sigma >= 0, "witness from counts is not finite")
            expect(abs(bound - exact) <= 8 * sigma + 8 / s["shots"], f"witness from counts {bound} far from {exact}")

        return {
            "b2": r["b2"], "b4": r["b4"], "fid": r["fid"],
            # two weighted sums per instruction stand for its branch fidelities
            "noisy_branch_fidelities": [
                [sum(noisy), sum(i * f for i, f in enumerate(noisy, 1))] for _, _, noisy, _ in r["mbqc"]
            ],
            "bounds": [v2, v1],
            "counts": _digest(rec.counts for rec in r["parsed"]),
            "count_bounds": [r["count_b2"][0], r["count_b4"][0]],
        }


# --- stretch-mixed ---------------------------------------------------------


def _cluster_stabilizer(n, i) -> str:
    """K_i = Z_{i-1} X_i Z_{i+1} of the linear cluster (0-based i)."""
    word = ["I"] * n
    word[i] = "X"
    for j in (i - 1, i + 1):
        if 0 <= j < n:
            word[j] = "Z"
    return "".join(word)


class StretchMixed:
    """One op analyses one seeded register of n = 6, 8 or 10 qubits."""

    name = "stretch-mixed"
    stream = 2
    # (n, state kind, noise kind, ops per cycle).  n = 10 is one op per
    # cycle with a fixed path (cluster + 3-qubit dephasing) so that every
    # seed pays the same O(8^n) cost; n = 6 and 8 cover all four paths.
    # n = 8 ops outnumber n = 6 ops so that the median and the tail both
    # fall inside the n = 8 class, whose cost is dominated by the O(8^n)
    # Born computation rather than by BLAS thread wake-ups.  The four n = 8
    # paths cost alike, and 48 of them give the tail many samples.
    MIX = [(6, s, k, 2) for s in ("random", "cluster") for k in ("white", "dephase")]
    MIX += [(8, s, k, 12) for s in ("random", "cluster") for k in ("white", "dephase")]
    MIX += [(10, "cluster", "dephase", 1)]
    # Sorted, a cycle is 8 n6, 48 n8 and 1 n10 op: rank 45 of 57 is the
    # 37th of the 48 n8 ops, and with c cycles rank 45c of 57c is an n8
    # op too.
    tail_q = Fraction(45, 57)
    N_WORDS = 4

    def __init__(self, seed, workdir):
        self.seed = seed

    def _op(self, rng, n, state, kind):
        dim = 2**n
        if kind == "white":
            noise = cs.NoiseSpec("white", float(rng.uniform(0.6, 1.0)))
        else:
            k = 3 if n == 10 else 1
            qubits = tuple(sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False)))
            noise = cs.NoiseSpec("dephase", float(rng.uniform(0.0, 0.2)), qubits)
        words = [_random_word(rng, n) for _ in range(self.N_WORDS)]
        if state == "cluster":
            words[0] = _cluster_stabilizer(n, int(rng.integers(n)))
        g = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        user = g @ g.conj().T
        user = (user + user.conj().T) / 2
        user /= np.trace(user).real
        setting = "".join(rng.choice(list("XYZ"), size=n))
        count_words = []
        for _ in range(2):
            mask = rng.random(n) < 0.5
            mask[int(rng.integers(n))] = True
            count_words.append("".join(b if m else "I" for b, m in zip(setting, mask)))
        return Op(f"n{n}", {
            "n": n, "state": state, "noise": noise,
            "amps": _random_state_amps(rng, dim) if state == "random" else None,
            "user": user, "words": words, "setting": cs.TomographicSetting(setting),
            "count_words": count_words,
            "shots": int(rng.integers(5000, 50001)), "count_seed": int(rng.integers(2**31)),
        })

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, self.stream, c])
        ops = [self._op(rng, n, s, k) for n, s, k, reps in self.MIX for _ in range(reps)]
        return _spread(rng, [op for op in ops if op.tag == "n10"], [op for op in ops if op.tag != "n10"])

    def warmup(self):
        rng = np.random.default_rng([self.seed, self.stream, WARMUP_CYCLE])
        return [self._op(rng, 6, "cluster", "dephase"), self._op(rng, 8, "random", "white")]

    def run(self, op, t):
        s = op.spec
        n = s["n"]
        if s["state"] == "cluster":
            state = t.call("states.pure_ctor", cs.PureState.from_amplitudes, np.ones(2**n))
            for q in range(1, n):
                state = t.call("states.cz", cs.apply_gate, state, cs.CZ, [q, q + 1])
        else:
            state = t.call("states.pure_ctor", cs.PureState.from_amplitudes, s["amps"])
        r = {"state": state}
        r["rho"] = rho = t.call(f"noise.{s['noise'].kind}", cs.apply_noise, state, s["noise"])
        user = t.call("states.density_ctor", cs.DensityMatrix, n, s["user"])
        r["pure"] = [t.call("states.pauli_pure", cs.pauli_expectation, state, w) for w in s["words"]]
        r["mixed"] = [t.call("states.pauli_mixed", cs.pauli_expectation, rho, w) for w in s["words"]]
        r["fid"] = t.call("states.fidelity", cs.fidelity, rho, state)
        r["fid_user"] = t.call("states.fidelity", cs.fidelity, user, state)
        r["born_pure"] = t.call("counts.born_pure", cs.born_distribution, state, s["setting"])
        r["born_mixed"] = t.call("counts.born_mixed", cs.born_distribution, rho, s["setting"])
        record = t.call("counts.sample", cs.sample_counts, rho, s["setting"], s["shots"], s["count_seed"])
        text = t.call("counts.serialize", cs.serialize_counts, [record])
        parsed = t.call("counts.parse", cs.parse_counts, text)
        t.add("counts.parse_rows", record.counts.size)
        r["record"], r["parsed"] = record, parsed
        r["from_counts"] = [
            t.call("counts.expectation", cs.expectation_from_counts, parsed[0], w) for w in s["count_words"]
        ]
        return r

    def check(self, op, r):
        s = op.spec
        n, noise = s["n"], s["noise"]
        dim = 2**n
        if s["state"] == "cluster":
            expect(close(r["pure"][0], 1.0), f"cluster stabilizer {s['words'][0]} = {r['pure'][0]}")
        for word, pure, mixed in zip(s["words"], r["pure"], r["mixed"]):
            if noise.kind == "white":
                factor = noise.p
            else:
                flips = sum(word[q - 1] in "XY" for q in noise.qubits)
                factor = (1 - 2 * noise.p) ** flips
            expect(close(mixed, factor * pure), f"{noise.kind} noise: <{word}> = {mixed}, expected {factor * pure}")
        if noise.kind == "white":
            expect(close(r["fid"], noise.p + (1 - noise.p) / dim), f"white-noise fidelity {r['fid']}")
        expect(-1e-9 <= r["fid"] <= 1 + 1e-9 and -1e-9 <= r["fid_user"] <= 1 + 1e-9, "fidelity outside [0, 1]")

        pure_p, mixed_p = r["born_pure"], r["born_mixed"]
        for p in (pure_p, mixed_p):
            expect(p.shape == (dim,) and close(p.sum(), 1.0) and p.min() >= 0, "Born distribution is not a distribution")
        if noise.kind == "white":
            expect(np.allclose(mixed_p, noise.p * pure_p + (1 - noise.p) / dim, rtol=0, atol=1e-9),
                   "white-noise Born distribution is not the mixture")

        record, parsed = r["record"], r["parsed"]
        expect(_roundtrip_ok([record], parsed), "parse_counts(serialize_counts(r)) != r")
        expect(record.total == s["shots"], "record total differs from the shots")
        index = np.arange(dim)
        for word, (value, sigma) in zip(s["count_words"], r["from_counts"]):
            signs = np.ones(dim)
            for i, letter in enumerate(word):
                if letter != "I":
                    signs *= 1 - 2 * ((index >> (n - 1 - i)) & 1)
            exact = float(signs @ mixed_p)
            spread = math.sqrt(max(1 - exact**2, 1 / s["shots"]) / s["shots"])
            expect(abs(value - exact) <= 8 * spread, f"<{word}> from counts {value} far from {exact}")
            expect(sigma >= 0, "negative sigma")

        weights = index / dim
        return {
            "pure": r["pure"], "mixed": r["mixed"], "fid": r["fid"], "fid_user": r["fid_user"],
            "born": [float(pure_p @ weights), float(pure_p @ pure_p), float(mixed_p @ weights), float(mixed_p @ mixed_p)],
            "counts": _digest([record.counts]),
            "from_counts": [v for v, _ in r["from_counts"]],
        }


# --- grouping-search -------------------------------------------------------


class GroupingSearch:
    """One op is one classical_bound call on a seeded target set."""

    name = "grouping-search"
    stream = 3
    # (n targets, bits, target qubits, ops per cycle).  One n = 12, bits = 2
    # search dominates the time; it is the only op of its class, so a run
    # completes 2-4 cycles and samples it at 2-4 points in time.  Every
    # other class but n10.b2 has one target dimension, so that its costs
    # are alike and the tail (inside n12.b1) sits inside one class rather
    # than on the edge between two.
    MIX = [(12, 2, 2, 1), (12, 1, 2, 16), (10, 2, 1, 2), (10, 2, 2, 2),
           (10, 1, 1, 4), (8, 2, 2, 8), (8, 1, 1, 8)]
    # Sorted, a cycle's 45 ops hold the 16 n12.b1 searches at ranks 25-40:
    # rank 39 of 45, and 39c of 45c with c cycles, is one of them, near
    # the top of the class.  The shared host runs an n12.b1 search at one
    # of two speeds (about 60 ms and 95 ms), and the share of slow ones
    # changes from run to run; the middle of the class would flip between
    # the two, its top reads the slow one.  6 ops per cycle lie beyond it.
    tail_q = Fraction(39, 45)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.paper = {
            "two": [cs.target_two_qubit(i) for i in cs.TWO_QUBIT_INSTRUCTIONS],
            "single": [cs.target_single(i) for i in cs.SINGLE_QUBIT_INSTRUCTIONS],
        }

    def _op(self, rng, n, bits, qubits):
        targets = [cs.PureState.from_amplitudes(_random_state_amps(rng, 2**qubits)) for _ in range(n)]
        return Op(f"n{n}.b{bits}", {"targets": targets, "bits": bits, "paper": None})

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, self.stream, c])
        ops = [self._op(rng, n, bits, qubits) for n, bits, qubits, reps in self.MIX for _ in range(reps)]
        for name, targets in self.paper.items():
            for bits in (1, 2):
                ops.append(Op(f"n{len(targets)}.b{bits}", {"targets": targets, "bits": bits, "paper": name}))
        return _spread(rng, [op for op in ops if op.tag == "n12.b2"], [op for op in ops if op.tag != "n12.b2"])

    def warmup(self):
        rng = np.random.default_rng([self.seed, self.stream, WARMUP_CYCLE])
        return [self._op(rng, 8, 2, 2), self._op(rng, 10, 1, 1)]

    def run(self, op, t):
        s = op.spec
        return t.call("classical_bound.solve", cs.classical_bound, s["targets"], s["bits"])

    def check(self, op, r):
        s = op.spec
        value, strategy = r
        _check_grouping(s["targets"], s["bits"], value, strategy)
        one_block = cs.optimal_group_state(s["targets"])[1]
        expect(one_block - 1e-9 <= value <= 1 + 1e-9, f"bound {value} below the one-block value {one_block}")
        if s["paper"] == "two" and s["bits"] == 2:
            expect(close(value, COS2_PI_8), f"two-qubit paper bound {value}")
        if s["paper"] == "single" and s["bits"] == 2:
            expect(abs(value - SINGLE_BOUND) < 5e-4, f"single-qubit paper bound {value}")
        return {"value": value}


# --- cli-oneshot -----------------------------------------------------------


class CliOneshot:
    """One op is one `python -m clustersim.cli ...` subprocess."""

    name = "cli-oneshot"
    stream = 4
    ROTATION = ("witness", "schmidt", "mbqc", "bounds", "sample", "ingest")
    # Six subcommands of like cost (interpreter start-up) per cycle,
    # 17-30 cycles per 30 s run.
    tail_q = Fraction(5, 6)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.b2, self.b4 = cs.build_b2(), cs.build_b4()

    def _noise(self, rng, allow_none):
        roll = rng.random()
        if allow_none and roll < 1 / 3:
            return None
        if roll < 2 / 3:
            return f"white:{float(rng.uniform(0.6, 1.0))!r}"
        k = int(rng.integers(1, 5))
        qubits = ",".join(str(int(q) + 1) for q in sorted(rng.choice(4, size=k, replace=False)))
        return f"dephase:{float(rng.uniform(0.0, 0.2))!r}:{qubits}"

    def _op(self, rng, sub, c, j):
        out = os.path.join(self.workdir, f"c{c}-{j}-{sub}.out")
        spec = {"sub": sub, "out": out, "argv": [sub]}
        if sub == "witness":
            spec["noise"] = self._noise(rng, allow_none=False)
            spec["argv"] += ["--noise", spec["noise"]]
        elif sub == "schmidt":
            spec["fidelity"] = float(rng.uniform(0.0, 1.0))
            spec["argv"] += ["--fidelity", repr(spec["fidelity"])]
        elif sub == "mbqc":
            instr = INSTRUCTIONS[int(rng.integers(16))]
            spec["noise"] = self._noise(rng, allow_none=True)
            # `--alpha=-pi/2`: a separate `-pi/2` token would parse as an option
            spec["argv"] += ["--task", str(rng.choice(["two-qubit", "single"])),
                             f"--alpha={GRID_NAMES[instr.alpha]}", f"--beta={GRID_NAMES[instr.beta]}"]
            if spec["noise"]:
                spec["argv"] += ["--noise", spec["noise"]]
        elif sub == "bounds":
            spec["task"] = str(rng.choice(["two-qubit", "single"]))
            spec["argv"] += ["--task", spec["task"]]
        elif sub == "sample":
            spec["shots"] = int(rng.integers(1000, 100001))
            spec["seed"] = int(rng.integers(2**31))
            spec["noise"] = f"white:{float(rng.uniform(0.6, 1.0))!r}"
            spec["argv"] += ["--shots", str(spec["shots"]), "--seed", str(spec["seed"]), "--noise", spec["noise"]]
        elif sub == "ingest":
            # Reads the CSV the preceding `sample` op of the cycle wrote.
            spec["counts"] = os.path.join(self.workdir, f"c{c}-{j - 1}-sample.out")
            spec["argv"] += ["--counts", spec["counts"]]
        spec["argv"] += ["--out", out]
        return Op(sub, spec)

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, self.stream, c])
        return [self._op(rng, sub, c, j) for j, sub in enumerate(self.ROTATION)]

    def warmup(self):
        rng = np.random.default_rng([self.seed, self.stream, WARMUP_CYCLE])
        return [self._op(rng, "schmidt", WARMUP_CYCLE, 0)]

    def run(self, op, t):
        argv = [sys.executable, "-m", "clustersim.cli", *op.spec["argv"]]
        return t.call("cli.invoke", subprocess.run, argv, env=self.env, capture_output=True, text=True, timeout=120)

    def check(self, op, proc):
        s = op.spec
        expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        with open(s["out"]) as fh:
            text = fh.read()
        sub = s["sub"]
        if sub == "sample":  # the CSV stays: it is the next op's input
            records = cs.parse_counts(text)
            state = cs.apply_noise(cs.cluster4(), cs.NoiseSpec.parse(s["noise"]))
            settings = cs.required_settings(self.b4)
            expected = [cs.sample_counts(state, st, s["shots"], s["seed"] + i) for i, st in enumerate(settings)]
            expect(_roundtrip_ok(expected, records), "sample CSV differs from sample_counts in-process")
            return {"counts": _digest(rec.counts for rec in records)}
        os.remove(s["out"])
        out = json.loads(text)
        expect(out["command"] == sub, "output names another command")
        if sub == "witness":
            spec = cs.NoiseSpec.parse(s["noise"])
            b2, b4 = out["b2"]["bound"], out["b4"]["bound"]
            if spec.kind == "white":
                expect(close(b4, spec.p) and close(b2, 1.5 * spec.p - 0.5), f"white-noise witnesses {b2}, {b4}")
            expect(b2 <= 1 + 1e-9 and b4 <= 1 + 1e-9, "witness above 1")
            return {"b2": b2, "b4": b4}
        if sub == "schmidt":
            sigs = {k: tuple(v) for k, v in out["signatures"].items()}
            expect(sigs == CLUSTER_SIGNATURES, f"signatures {sigs}")
            f = s["fidelity"]
            expected = (["biseparable", "ghz-w"] if f > 0.5 else []) + (["dicke"] if f > 0.75 else [])
            expect(out["excluded_classes"] == expected, f"excluded classes {out['excluded_classes']}")
            return {"excluded": out["excluded_classes"]}
        if sub == "mbqc":
            fids = out["rows"][0]["branch_fidelities"]
            if s["noise"] is None:
                expect(all(close(x, 1.0) for x in fids), f"pure-resource branch fidelities {fids}")
            expect(all(-1e-9 <= x <= 1 + 1e-9 for x in fids), "branch fidelity outside [0, 1]")
            return {"fids": fids}
        if sub == "bounds":
            if s["task"] == "two-qubit":
                expect(close(out["bound"], COS2_PI_8), f"two-qubit bound {out['bound']}")
            else:
                expect(abs(out["bound"] - SINGLE_BOUND) < 5e-4, f"single-qubit bound {out['bound']}")
            return {"bound": out["bound"]}
        # ingest
        with open(s["counts"]) as fh:
            records = cs.parse_counts(fh.read())
        os.remove(s["counts"])
        for name, obs in (("b2", self.b2), ("b4", self.b4)):
            bound, sigma = cs.witness_from_counts(records, obs)
            expect(close(out[name]["bound"], bound) and close(out[name]["sigma"], sigma), f"ingest {name} differs")
        return {"b2": out["b2"]["bound"], "b4": out["b4"]["bound"]}


WORKLOADS = {w.name: w for w in (PaperChain, StretchMixed, GroupingSearch, CliOneshot)}
