"""Every example script runs end to end (smoke + output sanity).

Examples are the documented entry points; breaking one silently is a
release bug, so they are part of the suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_has_the_documented_set():
    assert "quickstart.py" in EXAMPLES
    assert len(EXAMPLES) >= 6  # quickstart + >= 5 domain scenarios


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow)
        if n == "confidential_assets.py"
        else n
        for n in EXAMPLES
        if n != "benchmark_tour.py"
    ],
)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{name} printed nothing"
    assert "Traceback" not in out


def test_quickstart_output_shows_confidentiality(capsys):
    module = load_example("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "completed 2 transactions" in out
    assert "None (B never sees it)" in out
    assert "consistent across enterprises: True" in out
