"""The package's public surface: its exports and the README's library use."""
import inspect
import re
from pathlib import Path

import e2credit
from e2credit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_binds_exactly_the_public_names():
    # Every name in __all__ is bound by a star import, and every public
    # name the package binds but its submodules is in __all__.
    namespace = {}
    exec("from e2credit import *", namespace)
    assert set(e2credit.__all__) <= namespace.keys()
    public = [name for name, value in vars(e2credit).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(e2credit.__all__) == sorted(public)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # The section's code blocks run in order as one script, in a directory
    # holding the panel its CSV paths name.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--firms", "20", "--dates", "15", "--out-dir", "runs/synth"]) == 0
    namespace = {}
    exec(compile("\n".join(blocks), str(README), "exec"), namespace)
    assert namespace["report"].feature_names == namespace["matrix"].column_names()
