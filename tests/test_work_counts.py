"""Work counts of the sweep engine and of analyze's fold.

The Python calls of a warm `run_sweep` or `aggregate_outcome_rows`,
counted under `sys.setprofile`, are exact and the same on every run, so
they gate the shape of the cost where wall time on a shared host cannot.
Only ratios are asserted: Python 3.12+ inlines comprehensions, so
absolute counts differ by interpreter. The bounds only tighten.
"""

import sys
from dataclasses import replace
from pathlib import Path

from miqado.cli import load_config
from miqado.sim import (
    aggregate_outcome_rows,
    load_outcomes_csv,
    run_sweep,
    serialize_outcomes_csv,
)

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
#: events of config_sweep.json. It read 3.82 (Python 3.10, 3.11), 3.86
#: (3.12) and 3.85 (3.13) once the maturity liquidation's reuse lost its
#: health test and the healthy share came from each summary's sort: the
#: 15-cell grid's fixed work shrank more than the 75-cell grid's. It read
#: 3.81 to 3.85 once the payoff moments were exact Decimal sums over
#: lists, 3.85 to 3.90 before, and 4.11 before the maturity
#: liquidation became a per-(event, term) fact. One more call per
#: event-cell raises it by about 0.02. The aim is under 2: per-cell work
#: only λ arithmetic.
MAX_CELL_RATIO = 3.89
#: Most the per-event calls of the second doubling of the events may
#: exceed the first's: the sorts of the health factors are O(n log n).
MAX_MARGINAL_DRIFT = 0.02
#: Most Python calls analyze's fold may add per added outcome row. The fold
#: builds lists and sums them in C, so its calls are per cell, not per row:
#: it read 0.0 on Python 3.10 to 3.13, and 5.0 when each row resumed a
#: generator.
MAX_FOLD_CALLS_PER_ROW = 0.1


def warm_calls(fn, *args) -> int:
    """Python calls of a second `fn(*args)`, after a first one filled the
    caches."""
    fn(*args)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def sweep_calls(scenario, grid) -> int:
    """Python calls of a second `run_sweep`, after a first one filled the
    path's caches."""
    return warm_calls(run_sweep, scenario, *grid)


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


def test_analyze_fold_calls_are_per_cell():
    # config_sweep.json's 750 outcome rows, parsed as analyze parses them,
    # repeated 1, 2 and 4 times: the cells stay the same, so the calls may not
    # grow with the rows.
    base = config_sweep()
    made = [r for _, _, report in run_sweep(base, *GRID_15).cells for r in report.results]
    rows = load_outcomes_csv(serialize_outcomes_csv(made))
    one, two, four = (warm_calls(aggregate_outcome_rows, rows * k) for k in (1, 2, 4))
    n = len(rows)
    per_row = ((two - one) / n, (four - two) / (2 * n))
    assert max(per_row) <= MAX_FOLD_CALLS_PER_ROW, (n, one, two, four)
