"""README's library example, run as written, so the calls it documents stay valid."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"  # verify_mub passed
    assert lines[1].startswith("SupportStats(support_size=9,")
    # the Peres test on the maximally entangled state, directly and through check_state
    assert abs(float(lines[2]) + 1 / 3) < 1e-12
    assert scope["report"]["checks"]["pt"]["passed"] is False
    assert abs(scope["report"]["checks"]["pt"]["min_eigenvalue"] + 1 / 3) < 1e-12
    assert scope["rho_t"].shape == (3, 3)
