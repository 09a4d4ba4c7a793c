"""Each measured figure has one home: the ``BENCH_<label>.json`` file that
records the runs it comes from.

The package's docstrings and comments state contracts and name the BENCH
file behind a choice made for speed; a wall time or a machine quoted
there would be a second copy of a figure, left to go stale.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kirillov"
MODULES = sorted(PACKAGE.glob("*.py"))

# a machine, a numpy version, or a duration in milli- or microseconds or
# in seconds with a decimal point
TIMING = re.compile(
    r"vCPU|Xeon|numpy 2\.[0-9]|[0-9] ?(ms|us|µs)\b|[0-9]\.[0-9]+ s\b")
BENCH = re.compile(r"BENCH_[A-Za-z0-9_-]+\.json")


def test_the_timing_pattern_tells_figures_from_contracts():
    for figure in ("took 0.53 ms batch-first", "(2-vCPU Xeon, numpy 2.4)",
                   "about a minute at 5.4 us each", "from 0.169 to 0.151 s"):
        assert TIMING.search(figure), figure
    for contract in ("one array of ``DEFAULT_BATCH * 64`` bytes (2 MiB)",
                     "under numpy 2 (NEP 50) one that did not would raise",
                     "(p-1) + (c-1)(p-1)^2 of zero", "the 4q^4 tuples"):
        assert not TIMING.search(contract), contract


def test_no_source_line_quotes_a_wall_time_or_a_machine():
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in MODULES
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if TIMING.search(line)]
    assert hits == []


def test_every_bench_file_the_sources_or_the_readme_name_exists():
    texts = [path.read_text(encoding="utf-8") for path in MODULES]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    named = {name for text in texts for name in BENCH.findall(text)}
    assert named, "no BENCH file is named; has the citation form changed?"
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []
