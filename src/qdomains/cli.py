"""Command-line front end.

Every subcommand can write a machine-readable JSON report (``--json PATH``)
with schema { command, params, results: [ {name, value, flags, assert} ] }.
Reports are deterministic: identical command plus seed produces
byte-identical JSON (floats serialized with full round-trip precision, no
timestamps).  A ValueError from any subcommand, or a report path that
cannot be written, is a one-line ``Error:`` and exit status 1.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys

import click

from . import __version__
from .fock import FockTruncation, vaksman_norm
from .freeseries import (
    concat_multiply,
    estimated_radius,
    free_ball_norm,
    free_polydisk_norm,
    radius_partials,
    taylor_norm,
)
from .jsr import estimate_canonical_jsr
from .parsing import (
    format_free_element,
    format_qelement,
    parse_free_element,
    parse_qelement,
)
from .qspace import (
    FAMILIES as _Q_FAMILIES,
    QParameter,
    ball_norm,
    check_tau,
    multiply,
    polydisk_norm,
)
from .quotient import quotient_norm_l1, quotient_norm_l2
from .verify import SUITES, run_suite

_FREE_FAMILIES = ("free-polydisk", "free-taylor", "free-ball")
_UNREPORTED = ("json_path", "csv_path", "list_only")


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _result(name, value, flags=(), assert_=None, detail=None) -> dict:
    out = {
        "name": name,
        "value": _jsonable(value),
        "flags": list(flags),
        "assert": assert_,
    }
    if detail:
        out["detail"] = detail
    return out


def _report(results: list[dict], **overrides) -> dict:
    """Report of the running command.

    Its params are click's parsed options, less the output paths and
    ``verify --list``, updated by ``overrides``.
    """
    ctx = click.get_current_context()
    params = {k: v for k, v in ctx.params.items() if k not in _UNREPORTED}
    params.update(overrides)
    return {
        "command": ctx.command.name,
        "params": {k: _jsonable(v) for k, v in params.items()},
        "results": results,
        "provenance": {"package": "qdomains", "version": __version__},
    }


def _echo(line: str) -> None:
    # With no file, click.echo caches a wrapper per sys.stdout object in a
    # WeakKeyDictionary that keeps its key alive: every in-process run that
    # swaps sys.stdout (CliRunner, tests) would leak its captured stream.
    click.echo(line, file=sys.stdout)


def _write(path: str, text: str) -> None:
    """Overwrite the file at ``path`` with ``text``, in place.

    The file is not truncated to zero first: on ext4 with ``auto_da_alloc``
    a truncate-then-rewrite makes ``close()`` allocate blocks and start
    writeback.  A regular file is cut to the new length afterwards; any
    other target (a pipe, ``/dev/stdout``) is written as a stream.
    """
    data = text.encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(report: dict, json_path: str | None, human: list[str]) -> None:
    for line in human:
        _echo(line)
    if json_path:
        _write(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _element_flags(saturated: bool) -> tuple[str, ...]:
    return ("saturated", "lower-bound") if saturated else ()


def _vaksman_value(expression, n, q_mod, q_phase, rho, fock_cap):
    if q_phase != 0.0 or not 0.0 < q_mod < 1.0:
        raise click.ClickException(
            "the sup-style norm needs a real deformation parameter in (0, 1)"
        )
    fock = FockTruncation(n, q_mod, fock_cap)
    a = parse_qelement(expression, n, QParameter(q_mod, 0.0), fock_cap)
    return vaksman_norm(a, rho, fock), a


class _Main(click.Group):
    """The one error boundary: a ValueError from any subcommand is a clean error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="qdomains")
def main() -> None:
    """Computable norms on deformed polydisk and ball function algebras."""


# ---------------------------------------------------------------------------


@main.command()
@click.argument("expression")
@click.option("--family", type=click.Choice(_Q_FAMILIES + _FREE_FAMILIES + ("vaksman",)), default="polydisk")
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--q-mod", type=float, default=1.0, show_default=True)
@click.option("--q-phase", type=float, default=0.0, show_default=True)
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--tau", type=float, default=1.0, show_default=True)
@click.option("--cap", type=int, default=16, show_default=True)
@click.option("--fock-cap", type=int, default=16, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def norm(expression, family, n, q_mod, q_phase, rho, tau, cap, fock_cap, json_path):
    """Seminorm of EXPRESSION in the selected family."""
    if family not in _FREE_FAMILIES:
        check_tau(tau, unweighted=family)
    q = QParameter(q_mod, q_phase)  # checked also where the family ignores q
    if family in _Q_FAMILIES:
        a = parse_qelement(expression, n, q, cap)
        value = (polydisk_norm if family == "polydisk" else ball_norm)(a, rho)
        flags = _element_flags(a.saturated)
    elif family in _FREE_FAMILIES:
        a = parse_free_element(expression, n, cap)
        if family == "free-polydisk":
            value = free_polydisk_norm(a, rho, tau)
        elif family == "free-taylor":
            value = taylor_norm(a, rho)
        else:
            value = free_ball_norm(a, rho)
        flags = _element_flags(a.saturated)
    else:
        value, a = _vaksman_value(expression, n, q_mod, q_phase, rho, fock_cap)
        flags = ("lower-bound",) + _element_flags(a.saturated)
    report = _report([_result("norm", value, flags)])
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    _emit(report, json_path, [f"norm[{family}] = {value!r}{suffix}"])


@main.command(name="multiply")
@click.argument("expr_a")
@click.argument("expr_b")
@click.option("--mode", type=click.Choice(("qspace", "free")), default="qspace", show_default=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--q-mod", type=float, default=1.0, show_default=True)
@click.option("--q-phase", type=float, default=0.0, show_default=True)
@click.option("--cap", type=int, default=16, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def multiply_cmd(expr_a, expr_b, mode, n, q_mod, q_phase, cap, json_path):
    """Product of EXPR_A and EXPR_B (normal-ordered in qspace mode)."""
    q = QParameter(q_mod, q_phase)  # checked also in free mode, which ignores q
    if mode == "qspace":
        prod = multiply(
            parse_qelement(expr_a, n, q, cap), parse_qelement(expr_b, n, q, cap)
        )
        text = format_qelement(prod)
    else:
        prod = concat_multiply(
            parse_free_element(expr_a, n, cap), parse_free_element(expr_b, n, cap)
        )
        text = format_free_element(prod)
    flags = _element_flags(prod.saturated)
    results = [
        _result("terms", float(len(prod.coefficients)), flags),
        _result("degree", float(prod.degree()), flags),
    ]
    report = _report(results)
    report["expression"] = text
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    _emit(report, json_path, [text + suffix])


@main.command(name="quotient-norm")
@click.argument("expression")
@click.option("--family", type=click.Choice(_FREE_FAMILIES), default="free-taylor", show_default=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--q-mod", type=float, default=1.0, show_default=True)
@click.option("--q-phase", type=float, default=0.0, show_default=True)
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--tau", type=float, default=1.0, show_default=True)
@click.option("--cap", type=int, default=16, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def quotient_norm(expression, family, n, q_mod, q_phase, rho, tau, cap, json_path):
    """Norm of the coset of EXPRESSION modulo the commutation ideal."""
    if family != "free-polydisk":
        check_tau(tau, unweighted=family)
    target = parse_free_element(expression, n, cap)
    q = QParameter(q_mod, q_phase)
    if family == "free-ball":
        res = quotient_norm_l2(target, rho, q=q)
    else:  # free-taylor is the l1 family at tau = 1
        res = quotient_norm_l1(target, rho, tau, q=q)
    flags = tuple(res.flags)
    results = [_result("quotient-norm", res.value, flags)]
    for d, v in sorted(res.per_degree.items()):
        results.append(_result(f"degree-{d}", v, flags))
    report = _report(results)
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    _emit(report, json_path, [f"quotient-norm[{family}] = {res.value!r}{suffix}"])


@main.command()
@click.option("--family", type=click.Choice(_Q_FAMILIES + _FREE_FAMILIES), default="polydisk", show_default=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--q-mod", type=float, default=1.0, show_default=True)
@click.option("--q-phase", type=float, default=0.0, show_default=True)
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--r", type=float, default=1.0, show_default=True)
@click.option("--dmax", type=int, default=200, show_default=True)
@click.option("--tau", type=float, default=1.0, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def jsr(family, n, q_mod, q_phase, p, r, dmax, tau, json_path, csv_path):
    """Joint l^p spectral radius of the canonical generators and its certified bracket."""
    internal = family.replace("-", "_")
    # the free families ignore q, but it is checked for them too
    est = estimate_canonical_jsr(internal, n, QParameter(q_mod, q_phase), p, r, d_max=dmax, tau=tau)
    results = [
        _result("jsr-extrapolated", est.extrapolated, detail="closed-form limit"),
        _result("jsr-lower", est.lower),
        _result("jsr-upper", est.upper),
    ]
    report = _report(results)
    if csv_path:
        rows = ["d,R_d"] + [f"{d},{v!r}" for (_, d), v in sorted(est.partials.items())]
        _write(csv_path, "\n".join(rows) + "\n")
    _emit(report, json_path, [f"jsr[{family}] = {est.extrapolated!r}"])


@main.command(name="fock-norm")
@click.argument("expression")
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--q-mod", type=float, default=0.5, show_default=True)
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--fock-cap", type=int, default=16, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def fock_norm(expression, n, q_mod, rho, fock_cap, json_path):
    """Sup-style norm of EXPRESSION via the truncated shift representation."""
    value, a = _vaksman_value(expression, n, q_mod, 0.0, rho, fock_cap)
    flags = ("lower-bound",) + _element_flags(a.saturated)
    report = _report([_result("fock-norm", value, flags)])
    _emit(report, json_path, [f"fock-norm = {value!r}  [{', '.join(flags)}]"])


@main.command()
@click.argument("expression")
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--cap", type=int, default=16, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def radius(expression, n, cap, json_path, csv_path):
    """Degree partials of the convergence-radius estimate for a free series."""
    a = parse_free_element(expression, n, cap)
    partials = radius_partials(a)
    est = estimated_radius(a)
    flags = ("saturated",) if a.saturated else ()
    results = [_result(f"partial-d={d}", v, flags) for d, v in partials]
    results.append(_result("radius-estimate", est, flags))
    report = _report(results)
    if csv_path:
        rows = ["d,partial"] + [f"{d},{v!r}" for d, v in partials]
        _write(csv_path, "\n".join(rows) + "\n")
    human = [f"partial[d={d}] = {v!r}" for d, v in partials]
    human.append(f"radius estimate = {est!r}")
    _emit(report, json_path, human)


@main.command()
@click.argument("suites", nargs=-1)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--list", "list_only", is_flag=True, default=False)
@click.option("--json", "json_path", type=click.Path(), default=None)
def verify(suites, seed, list_only, json_path):
    """Run verification suites (all of them when none are named)."""
    if list_only:
        for name in SUITES:
            _echo(name)
        return
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise click.ClickException(
            f"unknown suite(s) {unknown}; available: {', '.join(SUITES)}"
        )
    suites = list(suites) or list(SUITES)
    human: list[str] = []
    results: list[dict] = []
    n_pass = n_total = 0
    for name in suites:
        for check in run_suite(name, seed).checks:
            n_total += 1
            n_pass += check.passed
            status = "PASS" if check.passed else "FAIL"
            human.append(
                f"[{status}] {name}:{check.name}  "
                f"value={check.value:.9g}  want {check.describe()}"
            )
            results.append(
                _result(
                    f"{name}:{check.name}",
                    check.value,
                    assert_=check.assert_dict(),
                    detail=check.detail,
                )
            )
    human.append(f"{n_pass}/{n_total} checks passed")
    _emit(_report(results, suites=suites), json_path, human)
    if n_pass < n_total:
        sys.exit(1)


if __name__ == "__main__":
    main()
