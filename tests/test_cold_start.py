"""Cold start: scipy is loaded only by the calls that use it.

In-process tests cannot see this, since other test modules import scipy, so
each check starts a fresh interpreter and reads its ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qdomains.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# runs each argument list through the CLI, then prints the scipy modules loaded
CHILD = """
import json, sys
from qdomains.cli import main
for args in json.loads(sys.argv[1]):
    try:
        main(args, prog_name="qdomains")
    except SystemExit as exc:
        if exc.code:
            raise
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


# builds Fock representations at the cap given, then norms a three-term element;
# prints the scipy modules loaded after the builds and after the norm
FOCK_CHILD = """
import json, sys
from qdomains.fock import FockTruncation, element_for, op_norm, rep_element, rep_generator
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
fock = FockTruncation(2, 0.5, int(sys.argv[1]))
rep_generator(1, fock)
R = rep_element(element_for(fock, {(1, 0): 1.0, (0, 1): 0.5, (1, 1): -0.25}), fock)
built = scipy_modules()
op_norm(R)
print(json.dumps([built, scipy_modules()]))
"""


def fresh_stdout(script, *argv):
    """Stdout of ``script`` run in a fresh interpreter that imports qdomains from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cold_run(*commands):
    """(stdout less the last line, scipy modules loaded) of a fresh interpreter."""
    *lines, modules = fresh_stdout(CHILD, json.dumps(commands)).splitlines()
    return "".join(line + "\n" for line in lines), json.loads(modules)


def test_import_loads_no_scipy():
    assert cold_run() == ("", [])


def test_commands_without_samples_or_csr_matrices_load_no_scipy_stats_or_sparse():
    """Commands that draw no Sobol sample and run no ARPACK.

    The twisted-CCR suite composes the Fock generators as partial maps, and a
    monomial's Fock norm reads a diagonal Gram matrix, so they are among them;
    the vaksman suite norms only monomials.  A Fock norm whose window
    components are all at most 240 columns wide labels them in numpy and
    solves them densely.  Only wider components load scipy.sparse.
    """
    _, modules = cold_run(
        ["norm", "x1*x2 + 0.5*x1", "--family", "ball", "--q-mod", "0.5"],
        ["multiply", "x2*x1", "x1 + x2", "--q-mod", "0.7"],
        ["quotient-norm", "z2*z1 - z1*z2", "--family", "free-ball", "--q-mod", "0.5"],
        ["jsr", "--family", "ball", "--q-mod", "0.5", "--dmax", "50"],
        ["radius", "z1 + 0.5*z1*z2"],
        ["verify", "normal-ordering"],
        ["verify", "fock-ccr"],
        ["norm", "x1", "--family", "vaksman", "--q-mod", "0.5"],
        ["verify", "vaksman"],
        ["fock-norm", "x1 + 0.5*x2 - 0.25*x1*x2", "--n", "2", "--fock-cap", "12"],
    )
    assert [m for m in modules if m.startswith(("scipy.stats", "scipy.sparse"))] == []


# commands that once imported scipy late and now import none: the stirling
# suite reads the sphere suprema off an exact grid in place of a Sobol sample,
# and Fock norms label their window components in numpy
NO_LONGER_SCIPY = [
    ["verify", "stirling"],
    ["fock-norm", "x1 + x2", "--n", "2"],
    ["norm", "x1 + x1^2", "--family", "vaksman", "--n", "1", "--q-mod", "0.5"],
]


@pytest.mark.parametrize(
    "args",
    [
        *NO_LONGER_SCIPY,
        # one window component of 780 columns: ARPACK, which imports scipy.sparse
        ["fock-norm", "x1 + x2 + x1*x2", "--n", "2", "--fock-cap", "40"],
    ],
    ids=" ".join,
)
def test_scipy_paths_from_a_cold_start_print_the_in_process_values(args):
    output, modules = cold_run(args)
    if args in NO_LONGER_SCIPY:
        assert modules == []
    else:
        assert modules  # the late import ran, and the probe saw it
    in_process = CliRunner().invoke(main, args)
    assert in_process.exit_code == 0, in_process.output
    assert output == in_process.output


# runs every verify suite; the CLI would exit 1 on the known rho-tau check
BATTERY_CHILD = """
import json, sys
from qdomains.verify import SUITES, run_suite
for name in SUITES:
    run_suite(name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_the_verify_battery_loads_no_scipy():
    assert json.loads(fresh_stdout(BATTERY_CHILD)) == []


def test_fock_representations_load_no_scipy_until_normed():
    # at cap 12 the window has 66 columns: every component is solved densely
    built, normed = json.loads(fresh_stdout(FOCK_CHILD, "12"))
    assert built == []
    assert normed == []


def test_a_fock_component_wider_than_the_dense_limit_loads_scipy_sparse():
    # at cap 40 the window is one component of 780 columns, past the 240 that
    # get a dense eigvalsh: ARPACK
    built, normed = json.loads(fresh_stdout(FOCK_CHILD, "40"))
    assert built == []
    assert [m for m in normed if m.startswith("scipy.sparse")]
