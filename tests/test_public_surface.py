"""The public names, and the names the benchmark's tracer wraps, all resolve."""

import importlib
import importlib.util
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import qdomains
from qdomains.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def load_spans():
    # spans.py imports only the standard library, so it loads by file path
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    missing = [
        f"{module_name}.{name}"
        for module_name, names, _, _ in load_spans().TARGETS
        for name in names
        if not hasattr(importlib.import_module(module_name), name)
    ]
    assert missing == []


def test_all_names_resolve():
    assert len(qdomains.__all__) == len(set(qdomains.__all__))
    assert [name for name in qdomains.__all__ if not hasattr(qdomains, name)] == []


def test_readme_library_tour_runs():
    # the tour names only the public API as it is
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_block_runs():
    # every command of the CLI section's block exits 0, and a "# prints X"
    # comment is its output, so the CLI docs cannot drift from the code
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.strip().splitlines()
    assert len(lines) >= 8
    runner = CliRunner()
    with runner.isolated_filesystem():
        for line in lines:
            command, _, comment = line.partition("#")
            program, *args = shlex.split(command)
            assert program == "qdomains"
            r = runner.invoke(main, args)
            assert r.exit_code == 0, (line, r.output)
            if comment.strip().startswith("prints "):
                assert r.output.strip() == comment.strip().removeprefix("prints "), line
