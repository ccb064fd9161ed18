"""The README's library example runs as it is written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_example() -> str:
    """The first python block of the README's "Library use" section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library use\n") :]
    return re.search(r"\n```python\n(.*?)\n```\n", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    code = library_example()
    namespace: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    # It routes the host layer's evaluation stream and reads one row of it.
    run, host = namespace["run"], namespace["host"]
    assert run.scored is host and len(run.sinks) == len(host) > 0
    assert run.summary.uncertain > 0
    assert len(capsys.readouterr().out.splitlines()) == 4
