"""Reference values for a workload's operations, in a process of their own.

Run as ``python3 perfbench/reference.py --workload NAME --seed N``; prints a
JSON list aligned with the operation list (null where an operation has no
numeric reference).  Running it apart keeps its memory (dense Fock blocks)
out of the measured process's peak resident size.
"""

from __future__ import annotations

import argparse
import json
import math

import oracles
from workloads import make_ops

# Dense SVD reference for Fock norms up to this basis size; above it the
# sandwich bounds are used (a dense n = 3, cap 24 block costs seconds each).
DENSE_FOCK_LIMIT = 1000


def reference(op: dict):
    kind = op["kind"]
    if kind == "quotient":
        if op["family"] == "l1":
            return {"value": oracles.quotient_l1(op["terms"], op["n"], op["q_mod"], op["q_phase"], op["rho"], op["tau"])}
        return {"value": oracles.quotient_l2(op["terms"], op["n"], op["q_mod"], op["q_phase"], op["rho"])}
    if kind == "fock":
        args = (op["n"], op["q"], op["cap"], op["terms"], op["rho"])
        if math.comb(op["cap"] + op["n"], op["n"]) <= DENSE_FOCK_LIMIT:
            return {"dense": oracles.fock_dense_norm(*args)}
        lower, upper = oracles.fock_sandwich(*args)
        return {"lower": lower, "upper": upper}
    if kind == "jsr":
        return {"partials": oracles.jsr_partials(op["family"], op["n"], op["q_mod"], 2.0, 5)}
    if kind == "sampled":
        return {"closed": oracles.ball_monomial_sup(op["k"], op["r"])}
    if kind == "slice":
        n, d = op["n"], op["d"]
        return {"value": n ** d - math.comb(d + n - 1, n - 1)}
    if kind == "ratio-scan":
        lo, hi = oracles.weight_ratio_extremes(op["n"], op["d_max"], op["q_mod"])
        return {"min": lo, "max": hi}
    if kind == "cli":
        check = op["check"]
        if check is None:
            return None
        if "norm" in check:
            value = oracles.coefficient_norm(
                check["norm"], check["terms"], check["n"], check["rho"],
                check.get("q_mod", 1.0), check.get("tau", 1.0),
            )
        elif check["quotient"] == "l1":
            value = oracles.quotient_l1(check["terms"], check["n"], check["q_mod"],
                                        check["q_phase"], check["rho"], check["tau"])
        else:
            value = oracles.quotient_l2(check["terms"], check["n"], check["q_mod"],
                                        check["q_phase"], check["rho"])
        return {"value": value}
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    refs = [reference(op) for op in make_ops(args.workload, args.seed)]
    print(json.dumps(refs))


if __name__ == "__main__":
    main()
