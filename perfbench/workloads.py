"""Seeded operation lists for the benchmark workloads.

Every operation is plain data (dicts of numbers, strings and tuples), so the
measuring process, the reference process and the set-up probes rebuild the
identical list from the seed alone.  Nothing here imports qdomains.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

WORKLOADS = ("kernels", "cli-mix", "verify-battery", "scale-points")

VERIFY_SUITES = (
    "normal-ordering",
    "submultiplicativity",
    "reversal",
    "quotient-polydisk",
    "quotient-ball",
    "jsr-separation",
    "weight-equivalence",
    "fock-ccr",
    "vaksman",
    "stirling",
    "slice-rank",
)

Q_MODULI = (0.5, 1.0, 2.0)

# scale-points has a fixed structure and seeded values.  The structure is
# what sets the work: the Douglas-Rachford iteration count depends on the
# fiber, |q| and tau, and the power-iteration count on the Fock support, the
# coefficient ratios and q.  Neither depends on the word order inside a fiber,
# the phase of q, rho or a common factor of the coefficients, which the seed
# draws.  So every seed gives new inputs and the same amount of work, and a
# cache keyed on the inputs gains nothing across seeds.

# Block-weighted (tau) quotient slots: (tau, |q|, fibers).  The fibers run
# from skewed to balanced at each degree.  The slots marked NC are the known
# non-converging tau = 5 cases (all 100 000 iterations, value far from the
# LP optimum); they stay in on purpose.
TAU_SLOTS_N2 = (
    (2.0, 0.5, ((3, 3),)),
    (5.0, 2.0, ((4, 3),)),
    (2.0, 1.0, ((2, 6),)),
    (5.0, 0.5, ((6, 3),)),
    (2.0, 2.0, ((5, 5),)),
    (5.0, 1.0, ((5, 5),)),  # NC
    (2.0, 1.0, ((7, 4),)),
    (5.0, 2.0, ((6, 6),)),  # NC
    (2.0, 0.5, ((2, 4), (8, 4))),
    (5.0, 1.0, ((1, 5), (3, 4))),
    (2.0, 2.0, ((4, 5), (9, 2))),
    (5.0, 0.5, ((3, 3), (2, 5), (7, 4))),
)
TAU_SLOTS_N3 = (
    (2.0, 0.5, ((2, 2, 1),)),
    (5.0, 2.0, ((1, 3, 2),)),
    (2.0, 1.0, ((2, 2, 2),)),
    (5.0, 0.5, ((3, 1, 3),)),
    (2.0, 2.0, ((3, 3, 2),)),
    (5.0, 1.0, ((2, 2, 3),)),
    (2.0, 1.0, ((3, 3, 3),)),
    (5.0, 2.0, ((4, 1, 4),)),
    (2.0, 0.5, ((1, 2, 2), (3, 2, 2))),
    (5.0, 1.0, ((2, 2, 1), (1, 3, 2))),
    (2.0, 2.0, ((2, 1, 3), (3, 3, 1))),
    (5.0, 0.5, ((2, 1, 2), (2, 2, 2), (4, 2, 3))),
)


# Fock slots: (n, cap, q, rho, ((multi-index, coefficient ratio), ...)); the
# seed draws the common complex factor.  rho is fixed because it reweights
# terms of different degrees.  Monomials, homogeneous and inhomogeneous
# elements.
FOCK_SLOTS = (
    (2, 40, 0.3, 0.8, (((2, 1), 1.0),)),
    (2, 40, 0.5, 1.2, (((1, 1), 1.0), ((2, 0), 0.5))),
    (2, 40, 0.7, 0.6, (((0, 3), 1.0),)),
    (2, 40, 0.3, 1.0, (((1, 0), 1.0), ((1, 2), 0.5 - 0.5j))),
    (2, 40, 0.5, 0.9, (((2, 2), 1.0),)),
    (2, 40, 0.7, 1.1, (((3, 1), 1.0), ((0, 1), -0.25j))),
    (3, 24, 0.3, 0.7, (((1, 1, 1), 1.0),)),
    (3, 24, 0.5, 1.3, (((0, 2, 1), 1.0),)),
    (3, 24, 0.7, 0.9, (((1, 0, 2), 1.0), ((2, 1, 0), 0.5))),
    (3, 24, 0.3, 1.0, (((0, 1, 0), 1.0), ((2, 0, 2), 0.5j))),
    (3, 24, 0.5, 0.8, (((3, 0, 1), 1.0),)),
    (3, 24, 0.7, 1.2, (((0, 0, 2), 1.0),)),
)

# Fixes the letter counts of the Taylor and ball quotient slots (cheap, so
# drawn rather than listed); the same for every run seed.
TEMPLATE_SEED = 20131101


def _phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _coeff(rng: np.random.Generator) -> tuple[float, float]:
    """A complex coefficient rounded to 4 decimals, away from zero.

    Rounded so that the CLI text and the reference see the same number.
    """
    while True:
        re = round(float(rng.standard_normal()), 4)
        im = round(float(rng.standard_normal()), 4)
        if abs(re) + abs(im) >= 0.05:
            return re, im


def _fock_terms(rng, support) -> tuple:
    """Support with its coefficient ratios times one drawn complex factor."""
    factor = complex(*_coeff(rng))
    return tuple((k, (round((factor * r).real, 4), round((factor * r).imag, 4))) for k, r in support)


def _arrange(rng: np.random.Generator, k: tuple[int, ...]) -> tuple[int, ...]:
    """A uniformly random word with letter counts k."""
    letters = [i + 1 for i, e in enumerate(k) for _ in range(e)]
    return tuple(int(a) for a in rng.permutation(letters))


def _random_word(rng: np.random.Generator, n: int, d: int) -> tuple[int, ...]:
    return tuple(int(a) for a in rng.integers(1, n + 1, size=d))


def _free_terms(words, coeffs) -> tuple:
    """Merge repeated words so every target lists each word once."""
    merged: dict[tuple[int, ...], list[float]] = {}
    for w, (re, im) in zip(words, coeffs):
        acc = merged.setdefault(w, [0.0, 0.0])
        acc[0] += re
        acc[1] += im
    return tuple((w, (c[0], c[1])) for w, c in merged.items() if c[0] or c[1])


# ---------------------------------------------------------------------------
# verify-battery


def verify_ops(seed: int) -> list[dict]:
    """One operation per suite; each suite's checks are counted separately."""
    return [{"kind": "suite", "suite": name, "seed": seed} for name in VERIFY_SUITES]


# ---------------------------------------------------------------------------
# scale-points


def _quotient_op(rng, n, family, tau, q_mod, words) -> dict:
    coeffs = [_coeff(rng) for _ in words]
    return {
        "kind": "quotient",
        "n": n,
        "family": family,  # "l1" or "l2"
        "tau": tau,
        "q_mod": q_mod,
        "q_phase": _phase(rng),
        "rho": round(float(rng.uniform(0.6, 1.2)), 4),
        "terms": _free_terms(words, coeffs),
    }


def _unweighted_slots() -> list[tuple]:
    """(n, family, |q|, fibers) of the 24 Taylor (l1) and ball (l2) slots."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    slots = []
    for n, d_lo, d_hi in ((2, 6, 12), (3, 5, 9)):
        for i in range(12):
            fibers = []
            for _ in range(1 + (i // 2) % 3):
                word = _random_word(rng, n, int(rng.integers(d_lo, d_hi + 1)))
                fibers.append(tuple(word.count(a) for a in range(1, n + 1)))
            slots.append((n, "l1" if i % 2 == 0 else "l2", Q_MODULI[i % 3], tuple(fibers)))
    return slots


def scale_ops(seed: int) -> list[dict]:
    """ROADMAP scale points: quotients at d >= 5, Fock at cap 40/24, JSR at d = 200."""
    rng = np.random.default_rng([seed, 2])
    ops: list[dict] = []
    for n, family, q_mod, fibers in _unweighted_slots():
        ops.append(_quotient_op(rng, n, family, None, q_mod, [_arrange(rng, k) for k in fibers]))
    for n, slots in ((2, TAU_SLOTS_N2), (3, TAU_SLOTS_N3)):
        for tau, q_mod, fibers in slots:
            ops.append(_quotient_op(rng, n, "l1", tau, q_mod, [_arrange(rng, k) for k in fibers]))
    for n, cap, q, rho, support in FOCK_SLOTS:
        ops.append({"kind": "fock", "n": n, "cap": cap, "q": q, "rho": rho,
                    "terms": _fock_terms(rng, support)})
    for family in ("polydisk", "ball"):
        ops.append(
            {
                "kind": "jsr",
                "family": family,
                "n": 3,
                "q_mod": Q_MODULI[int(rng.integers(0, 3))],
                "q_phase": _phase(rng),
                "d_max": 200,
            }
        )
    # interleaved, in the same order on every seed: an operation's latency
    # depends on what ran before it (caches, allocator state)
    order = np.random.default_rng(TEMPLATE_SEED).permutation(len(ops))
    return [ops[int(i)] for i in order]


# ---------------------------------------------------------------------------
# cli-mix


def _fmt_coeff(c: tuple[float, float]) -> str:
    return f"({c[0]:.4f}{c[1]:+.4f}i)"


def q_expression(terms) -> str:
    """Normal-ordered text c*x1^a*x2^b + ... for (k, coefficient) terms."""
    parts = []
    for k, c in terms:
        mono = [f"x{i + 1}^{e}" for i, e in enumerate(k) if e]
        parts.append("*".join([_fmt_coeff(c)] + mono))
    return " + ".join(parts)


def free_expression(terms) -> str:
    """Text c*z_i*z_j*... for (word, coefficient) terms."""
    parts = []
    for w, c in terms:
        parts.append("*".join([_fmt_coeff(c)] + [f"z{a}" for a in w]))
    return " + ".join(parts)


def _q_terms(rng, n: int, d_max: int, count: int):
    support = [k for k in product(range(d_max + 1), repeat=n) if sum(k) <= d_max]
    idx = rng.choice(len(support), size=min(count, len(support)), replace=False)
    return tuple((support[int(j)], _coeff(rng)) for j in idx)


def _free_terms_random(rng, n: int, d_max: int, count: int):
    words = [_random_word(rng, n, int(rng.integers(1, d_max + 1))) for _ in range(count)]
    return _free_terms(words, [_coeff(rng) for _ in words])


def _log_uniform_q(rng) -> float:
    return round(float(math.exp(rng.uniform(math.log(0.25), math.log(4.0)))), 4)


def _request(args: list, expect: int, check: dict | None = None, known: str | None = None) -> dict:
    return {"kind": "cli", "args": [str(a) for a in args], "expect": expect, "check": check, "known": known}


# cli-mix, like scale-points, fixes what sets the cost of a request (the
# command, term counts, JSR degree, Fock cap and support, quotient fibers) and
# draws the rest from the seed.  Fock slots: (n, fock cap, q, rho, support
# with coefficient ratios); the first three go through `norm --family
# vaksman`.  Six of them, half running the power iteration to max_iter: each
# such request takes about 0.1 s, and more would crowd out the short requests
# this workload is about and leave too few passes in a run.
CLI_FOCK_SLOTS = (
    (1, 8, 0.3, 0.9, (((2,), 1.0),)),
    (1, 12, 0.7, 0.7, (((1,), 1.0), ((3,), 0.5))),
    (2, 12, 0.7, 1.2, (((2, 1), 1.0),)),
    (1, 16, 0.3, 1.0, (((1,), 1.0),)),
    (1, 14, 0.7, 1.4, (((2,), 1.0), ((0,), 0.25))),
    (1, 8, 0.5, 1.1, (((3,), 1.0),)),
)


def _quotient_request_fibers() -> list[tuple]:
    """Letter counts of the 40 quotient-norm requests' terms (degree <= 6)."""
    rng = np.random.default_rng([TEMPLATE_SEED, 3])
    out = []
    for i in range(40):
        n = 2 + i % 2
        words = [_random_word(rng, n, int(rng.integers(1, 7))) for _ in range(1 + (i // 2) % 3)]
        out.append(tuple(tuple(w.count(a) for a in range(1, n + 1)) for w in words))
    return out


def cli_ops(seed: int) -> list[dict]:
    """273 CLI requests; command counts and cost-setting structure fixed, inputs drawn."""
    rng = np.random.default_rng([seed, 3])
    reqs: list[dict] = []
    # norm, every family
    for i in range(110):
        family = ("polydisk", "ball", "free-polydisk", "free-taylor", "free-ball")[i % 5]
        n = 1 + i % 3
        count = 1 + (i // 5) % 4
        rho = round(float(rng.uniform(0.3, 1.5)), 4)
        if family in ("polydisk", "ball"):
            q_mod, q_phase = _log_uniform_q(rng), round(_phase(rng), 4)
            terms = _q_terms(rng, n, 6, count)
            args = ["norm", q_expression(terms), "--family", family, "--n", n,
                    "--q-mod", q_mod, "--q-phase", q_phase, "--rho", rho]
            check = {"norm": family, "n": n, "q_mod": q_mod, "rho": rho, "terms": terms}
        else:
            tau = round(float(rng.uniform(1.0, 3.0)), 4)
            terms = _free_terms_random(rng, n, 6, count)
            args = ["norm", free_expression(terms), "--family", family, "--n", n,
                    "--rho", rho, "--tau", tau]
            check = {"norm": family, "n": n, "rho": rho, "tau": tau, "terms": terms}
        reqs.append(_request(args, 0, check))
    for i, (n, cap, q, rho, support) in enumerate(CLI_FOCK_SLOTS):
        expr = q_expression(_fock_terms(rng, support))
        if i < 3:
            args = ["norm", expr, "--family", "vaksman", "--n", n, "--q-mod", q, "--rho", rho,
                    "--fock-cap", cap]
        else:
            args = ["fock-norm", expr, "--n", n, "--q-mod", q, "--rho", rho, "--fock-cap", cap]
        reqs.append(_request(args, 0))
    # multiply at caps 16-24
    for i in range(60):
        n = 2 + i % 2
        cap = int(rng.integers(16, 25))
        na, nb = 2 + (i // 2) % 3, 2 + (i // 6) % 3
        if i % 3:
            q_mod, q_phase = _log_uniform_q(rng), round(_phase(rng), 4)
            a, b = _q_terms(rng, n, 8, na), _q_terms(rng, n, 8, nb)
            args = ["multiply", q_expression(a), q_expression(b), "--n", n,
                    "--q-mod", q_mod, "--q-phase", q_phase, "--cap", cap]
        else:
            a, b = _free_terms_random(rng, n, 8, na), _free_terms_random(rng, n, 8, nb)
            args = ["multiply", free_expression(a), free_expression(b), "--mode", "free",
                    "--n", n, "--cap", cap]
        reqs.append(_request(args, 0))
    # quotient-norm up to degree 6
    for i, fibers in enumerate(_quotient_request_fibers()):
        family = ("free-taylor", "free-polydisk", "free-ball")[i % 3]
        n = 2 + i % 2
        q_mod, q_phase = Q_MODULI[(i // 3) % 3], round(_phase(rng), 4)
        rho = round(float(rng.uniform(0.5, 1.2)), 4)
        tau = (1.5, 2.0, 5.0)[(i // 9) % 3] if family == "free-polydisk" else 1.0
        words = [_arrange(rng, k) for k in fibers]
        terms = _free_terms(words, [_coeff(rng) for _ in words])
        args = ["quotient-norm", free_expression(terms), "--family", family, "--n", n,
                "--q-mod", q_mod, "--q-phase", q_phase, "--rho", rho, "--tau", tau]
        check = {"quotient": "l2" if family == "free-ball" else "l1", "n": n,
                 "q_mod": q_mod, "q_phase": q_phase, "rho": rho,
                 "tau": tau if family == "free-polydisk" else None, "terms": terms}
        reqs.append(_request(args, 0, check))
    # jsr
    for i in range(10):
        family = ("polydisk", "ball", "free-taylor", "free-ball", "free-polydisk")[i % 5]
        args = ["jsr", "--family", family, "--n", 2 + i // 5, "--dmax", (50, 100, 200)[i % 3]]
        if family in ("polydisk", "ball"):
            args += ["--q-mod", Q_MODULI[int(rng.integers(0, 3))], "--q-phase", round(_phase(rng), 4)]
        if family == "free-polydisk":
            args += ["--tau", round(float(rng.uniform(1.0, 3.0)), 4)]
        reqs.append(_request(args, 0))
    # radius
    for i in range(30):
        n = 1 + i % 3
        terms = _free_terms_random(rng, n, 6, 1 + (i // 3) % 4)
        reqs.append(_request(["radius", free_expression(terms), "--n", n], 0))
    # invalid or extreme input: the correct outcome is a clean exit 1
    bad_text = ("x1*+x2", "(1+2i*x1", "x1^", "2**x1", "x1 $ x2")
    for i in range(5):
        reqs.append(_request(["norm", bad_text[i], "--q-mod", _log_uniform_q(rng)], 1))
    for i in range(2):
        reqs.append(_request(["norm", "x3", "--n", 2], 1))
    for i in range(2):
        reqs.append(_request(["norm", f"1e999*x{1 + i}"], 1, known="nan-exit-0"))
    for i in range(2):
        reqs.append(_request(["norm", f"x{1 + i}", "--family", "ball", "--q-mod", "1e-320"], 1,
                             known="overflow-ball-weight"))
    for i in range(2):
        reqs.append(_request(["jsr", "--family", "ball", "--n", 2 + i, "--q-mod", "1e-300"], 1,
                             known="overflow-jsr-ball"))
    for i in range(4):
        family = ("polydisk", "ball", "free-ball", "free-taylor")[i]
        reqs.append(_request(["norm", "x1" if i < 2 else "z1", "--family", family,
                              "--rho", (0, -1, -0.5, 0)[i]], 1))
    order = np.random.default_rng([TEMPLATE_SEED, 4]).permutation(len(reqs))
    return [reqs[int(i)] for i in order]


# ---------------------------------------------------------------------------
# kernels


# kernels is sized for repetition: a run times each operation about 60 times
# and keeps its fastest, which repeats between runs on a shared host only for
# short operations (see README.md).  So every operation takes under about
# 0.1 s and a pass about 0.6 s; the full sizes stay in verify-battery and
# scale-points.

# The two verify suites that finish in under 0.1 s.
KERNEL_SUITES = ("normal-ordering", "fock-ccr")

# Fock: (n, cap, q, rho, support with coefficient ratios), as FOCK_SLOTS.
# n = 1, cap 60 is the vaksman suite's truncation; its n = 2, cap 12 calls
# run the power iteration to max_iter (0.2-0.3 s each), so n = 2 is at cap 8.
KERNEL_FOCK_SLOTS = (
    (1, 60, 0.5, 0.5, (((1,), 1.0),)),
    (1, 60, 0.5, 1.0, (((3,), 1.0),)),
    (2, 6, 0.5, 0.9, (((2, 2), 1.0),)),
    (2, 8, 0.5, 0.9, (((2, 2), 1.0),)),
)
# Quotients: (n, family, tau, |q|, fibers), all converging, degree <= 7.
KERNEL_QUOTIENT_SLOTS = (
    (2, "l1", None, 0.5, ((3, 3),)),
    (2, "l2", None, 1.0, ((4, 2),)),
    (2, "l1", None, 2.0, ((2, 2), (3, 4))),
    (2, "l2", None, 0.5, ((5, 2), (1, 3))),
    (2, "l1", 2.0, 1.0, ((3, 3),)),
    (2, "l1", 2.0, 2.0, ((4, 3),)),
    (2, "l1", 5.0, 0.5, ((3, 2),)),
    (2, "l1", 5.0, 2.0, ((4, 3),)),
    (3, "l1", None, 1.0, ((2, 2, 1),)),
    (3, "l2", None, 2.0, ((2, 1, 2), (1, 1, 1))),
    (3, "l1", 2.0, 0.5, ((2, 1, 1),)),
    (3, "l1", 5.0, 1.0, ((1, 2, 2),)),
)
# Sobol sampling as the stirling suite does it: (n, r); the seed draws the
# monomial from those the suite checks (degree 1 to 6).
KERNEL_SAMPLED_SLOTS = ((2, 1.0), (2, 0.8), (3, 1.0))
SAMPLED_POINTS = 1 << 18
SAMPLED_SEED = 7
# Commutation-ideal slices: (n, d, |q|).  Weight ratio scans: (n, d_max,
# range of |q|); the polydisk weight takes another branch below |q| = 1.
KERNEL_SLICE_SLOTS = ((3, 4, 0.5), (2, 6, 2.0), (2, 5, 0.5))
KERNEL_SCAN_SLOTS = ((2, 30, 0.25, 0.8), (2, 30, 1.25, 4.0))
# JSR at d = 60: (family, |q|); the seed draws the phase.
KERNEL_JSR_SLOTS = (("polydisk", 2.0), ("ball", 0.5))


def kernel_ops(seed: int) -> list[dict]:
    """Short library calls; the structure is fixed, as in scale-points, and
    the seed draws the values that do not set the work."""
    rng = np.random.default_rng([seed, 4])
    ops: list[dict] = [{"kind": "suite", "suite": name, "seed": seed} for name in KERNEL_SUITES]
    for n, family, tau, q_mod, fibers in KERNEL_QUOTIENT_SLOTS:
        ops.append(_quotient_op(rng, n, family, tau, q_mod, [_arrange(rng, k) for k in fibers]))
    for n, cap, q, rho, support in KERNEL_FOCK_SLOTS:
        ops.append({"kind": "fock", "n": n, "cap": cap, "q": q, "rho": rho,
                    "terms": _fock_terms(rng, support)})
    for n, r in KERNEL_SAMPLED_SLOTS:
        monomials = [k for k in product(range(7), repeat=n) if 1 <= sum(k) <= 6]
        k = monomials[int(rng.integers(0, len(monomials)))]
        ops.append({"kind": "sampled", "k": k, "r": r, "points": SAMPLED_POINTS, "seed": SAMPLED_SEED})
    for n, d, q_mod in KERNEL_SLICE_SLOTS:
        ops.append({"kind": "slice", "n": n, "d": d, "q_mod": q_mod, "q_phase": _phase(rng)})
    for n, d_max, q_lo, q_hi in KERNEL_SCAN_SLOTS:
        q_mod = round(float(math.exp(rng.uniform(math.log(q_lo), math.log(q_hi)))), 4)
        ops.append({"kind": "ratio-scan", "n": n, "d_max": d_max, "q_mod": q_mod})
    for family, q_mod in KERNEL_JSR_SLOTS:
        ops.append({"kind": "jsr", "family": family, "n": 3, "q_mod": q_mod, "q_phase": _phase(rng), "d_max": 60})
    order = np.random.default_rng([TEMPLATE_SEED, 5]).permutation(len(ops))
    return [ops[int(i)] for i in order]


def make_ops(workload: str, seed: int) -> list[dict]:
    if workload == "kernels":
        return kernel_ops(seed)
    if workload == "verify-battery":
        return verify_ops(seed)
    if workload == "scale-points":
        return scale_ops(seed)
    if workload == "cli-mix":
        return cli_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
