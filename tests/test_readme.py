"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

from cityattract.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(tmp_path), "--seed", "7", "--regions", "20",
                     "--events-total", "20000", "--resident-share", "0.2", "--tag", "demo"]) == 0
    for name in ("events__demo.csv", "countries__demo.geojson", "cities__demo.geojson"):
        (tmp_path / name).rename(tmp_path / name.replace("__demo", ""))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    b = float(out.getvalue().split()[0])
    assert abs(b - 1.5) < 0.1
