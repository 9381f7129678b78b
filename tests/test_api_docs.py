"""``tools/gen_api_docs.py``: the API reference is reproducible.

Regenerating ``docs/api.md`` without an API change must not rewrite it:
two generator runs, under different hash seeds, give byte-identical
output, and no default value leaks a memory address into a signature.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

RENDER = "import sys; sys.path.insert(0, 'tools'); import gen_api_docs; sys.stdout.write(gen_api_docs.render())"


def render(hash_seed: str) -> str:
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, paths)),
        "PYTHONHASHSEED": hash_seed,
    }
    done = subprocess.run(
        [sys.executable, "-c", RENDER],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_two_generator_runs_are_byte_identical_and_address_free():
    first, second = render("0"), render("1")
    assert first == second
    assert " at 0x" not in first
    # Callable defaults are rendered by name instead.
    assert "label_match: 'LabelMatch' = repro.automata.refinement.exact_labels" in first
