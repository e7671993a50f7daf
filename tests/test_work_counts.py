"""Work counts of the sweep engine.

The Python calls of a warm `run_sweep`, counted under `sys.setprofile`, are
exact and the same on every run, so they gate the shape of the engine's
cost where wall time on a shared host cannot. Only ratios are asserted:
Python 3.12+ inlines comprehensions, so absolute counts differ by
interpreter. The bounds only tighten.
"""

import sys
from dataclasses import replace
from pathlib import Path

from miqado.cli import load_config
from miqado.sim import run_sweep

FIXTURES = Path(__file__).parent / "fixtures"
HOUR = 3600

#: The benchmark sweep's grid: 5 premium factors times 3 terms.
GRID_15 = (["0.01", "0.02", "0.05", "0.10", "0.20"], [h * HOUR for h in (1, 6, 24)])
#: 15 premium factors times 5 terms.
GRID_75 = (
    [f"0.{k:02d}" for k in range(1, 11)] + ["0.12", "0.14", "0.16", "0.18", "0.20"],
    [h * HOUR for h in (1, 2, 6, 12, 24)],
)

#: Most calls a 75-cell grid may cost per call of the 15-cell grid, at 40
#: events of config_sweep.json. It read 3.85 (Python 3.10, 3.11), 3.90
#: (3.12) and 3.89 (3.13) once each term ran as one loop and the cell
#: folds built lists, 3.88 to 3.93 before, and 4.11 before the maturity
#: liquidation became a per-(event, term) fact. One more call per
#: event-cell raises it by about 0.02. The aim is under 2: per-cell work
#: only λ arithmetic.
MAX_CELL_RATIO = 3.95
#: Most the per-event calls of the second doubling of the events may
#: exceed the first's: the sorts of the health factors are O(n log n).
MAX_MARGINAL_DRIFT = 0.02


def sweep_calls(scenario, grid) -> int:
    """Python calls of a second `run_sweep`, after a first one filled the
    path's caches."""
    run_sweep(scenario, *grid)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run_sweep(scenario, *grid)
    finally:
        sys.setprofile(None)
    return calls


def config_sweep():
    return load_config(FIXTURES / "config_sweep.json")


def test_calls_grow_linearly_with_events():
    # The same 10 events repeated 1, 2 and 4 times, so the mix of classes
    # is fixed: each doubling must add the same calls per event.
    base = config_sweep()
    one, two, four = (
        sweep_calls(replace(base, events=base.events[:10] * k), GRID_15) for k in (1, 2, 4)
    )
    first, second = two - one, (four - two) / 2
    assert abs(second / first - 1) <= MAX_MARGINAL_DRIFT, (one, two, four)


def test_calls_per_cell_bounded():
    base = config_sweep()
    s = replace(base, events=base.events[:40])
    small, large = sweep_calls(s, GRID_15), sweep_calls(s, GRID_75)
    assert large / small <= MAX_CELL_RATIO, (small, large)
