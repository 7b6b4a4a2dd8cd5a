"""The README's library quick tour runs as printed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOUR = re.compile(r"^## Library quick tour\n\n```python\n(.*?)^```$", re.M | re.S)


def test_quick_tour_runs(capsys):
    match = TOUR.search((ROOT / "README.md").read_text(encoding="utf-8"))
    assert match, "README has no quick-tour code block"
    scope = {}
    exec(compile(match.group(1), "README.md quick tour", "exec"), scope)
    k_on_chi, cond, final_ratio = map(float, capsys.readouterr().out.split())
    assert abs(k_on_chi + 1.0) <= 1e-9 and cond >= 1.0
    assert final_ratio == scope["report"].final_ratio <= 1e-6
