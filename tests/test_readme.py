"""The README's examples run: its config schema block loads with no
violations, and its library sketch runs as written."""

import json
import re
from pathlib import Path

from renewalsim.config import load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_config_schema_example_loads_without_violations():
    scenario = load_scenario(json.loads(code_block("Config schema", "json")))
    assert scenario.violations == ()


def test_library_sketch_runs_as_written():
    namespace = {}
    exec(compile(code_block("Library sketch", "python"), str(README), "exec"), namespace)
    assert namespace["report"].bound_holds
