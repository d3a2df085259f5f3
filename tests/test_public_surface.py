"""The public names, and the names the benchmark's tracer wraps, all resolve."""

import importlib
import importlib.util
import re
from pathlib import Path

import qdomains

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
