"""The README's library example runs as written."""

import math
import re
from pathlib import Path

from scipy import special

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {"__name__": "readme_library"}
    exec(compile(code, str(README), "exec"), namespace)
    # the shares are a lognormal's, whose Gini is 2 Phi(sigma / sqrt 2) - 1
    printed = float(capsys.readouterr().out)
    assert abs(printed - (2.0 * special.ndtr(0.8 / math.sqrt(2.0)) - 1.0)) < 1e-5
    assert namespace["fit2"].method == "gmm" and namespace["fit2"].spec.family == "gb2"
