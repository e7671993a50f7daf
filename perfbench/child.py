"""Run one `miqado` CLI invocation inside a benchmark child process.

    python3 perfbench/child.py --src SRC --marks MARKS.json
        [--spans SPANS.tsv --run-id ID | --setup-only] -- simulate|analyze ...

The child imports `miqado.cli` from SRC, calls `main()` with the
arguments after `--` and exits with its return code. It writes
CLOCK_MONOTONIC readings to MARKS.json, which the parent compares with
its own reading taken just before launch:

* `start`: first line of this script (interpreter start-up is done);
* `imported`: `miqado.cli` and everything it imports are loaded;
* `inputs_ready`: the inputs are in memory, i.e. `load_config` returned
  (simulate) or both CSVs are parsed (analyze);
* `end`: `main()` returned.

With `--setup-only` the child stops once its inputs are ready, so that
set-up time can be sampled more often than whole runs.

With `--spans`, every probe in PROBES is wrapped where its caller looks it
up, and each call is recorded as a span (name, start, end, parent span,
run id). Spans stay in memory and are written once, after `main()`
returns, to SPANS.tsv, apart from the CLI's own outputs.
"""

from __future__ import annotations

import time

_T_START = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

#: (module whose namespace the caller reads, attribute, span name). A
#: dotted attribute names a method patched on its class. Span names are
#: `<layer>.<stage>`, the layer being the module that defines the callee.
PROBES = (
    ("miqado.cli", "cmd_simulate", "cli.simulate"),
    ("miqado.cli", "cmd_analyze", "cli.analyze"),
    ("miqado.cli", "load_config", "cli.load_config"),
    ("miqado.cli", "generate_gbm", "market.generate_gbm"),
    ("miqado.cli", "synthesize_events", "sim.synthesize_events"),
    ("miqado.cli", "run_sweep", "sim.run_sweep"),
    ("miqado.cli", "outcome_rows_from_report", "sim.outcome_rows"),
    ("miqado.cli", "load_events_csv", "sim.load_events_csv"),
    ("miqado.cli", "load_outcomes_csv", "sim.load_outcomes_csv"),
    ("miqado.cli", "aggregate_outcome_rows", "sim.aggregate_outcome_rows"),
    ("miqado.sim", "run_scenario", "sim.run_scenario"),
    ("miqado.sim", "DistSummary.from_values", "sim.dist_summary"),
    ("miqado.sim", "health_factor", "core.health_factor"),
    ("miqado.protocol", "health_factor", "core.health_factor"),
    ("miqado.sim", "fsl_post_health_factor", "core.fsl_post_health_factor"),
    ("miqado.sim", "execute_fsl", "core.execute_fsl"),
    ("miqado.sim", "can_initiate", "protocol.can_initiate"),
    ("miqado.sim", "initiate", "protocol.initiate"),
    ("miqado.sim", "terminate", "protocol.terminate"),
    ("miqado.sim", "settle_at_maturity", "protocol.settle_at_maturity"),
    ("miqado.sim", "supporter_decision", "protocol.supporter_decision"),
    ("miqado.sim", "historical_volatility", "option.historical_volatility"),
    ("miqado.protocol", "optimal_premium_factor", "option.optimal_premium_factor"),
    ("miqado.sim", "direct_price_decline", "market.direct_price_decline"),
    ("miqado.market", "PricePath.index_at_or_after", "market.index_at_or_after"),
)

#: The call after which a command's inputs are in memory.
INPUTS_READY = {"simulate": "load_config", "analyze": "load_outcomes_csv"}


class Tracer:
    """In-memory span recorder for one process. Spans are kept in flat
    arrays, so that the hundreds of thousands a long run records stay
    small: id, name, start, end and parent id (-1: no parent). A span is
    recorded when it ends, so it always follows its children."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.columns = (array("q"), array("H"), array("d"), array("d"), array("q"))
        self._stack: list[int] = [-1]
        self._next_id = 0

    def wrap(self, fn, name: str):
        name_ix = len(self.names)
        self.names.append(name)
        ids, names, starts, ends, parents = self.columns
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.append(span_id)
                names.append(name_ix)
                starts.append(start)
                ends.append(end)
                parents.append(parent)

        return traced

    def install(self) -> None:
        for module_name, attr, name in PROBES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
                else:
                    setattr(owner, attr, self.wrap(raw, name))
            else:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def dump(self, path: str) -> None:
        """Tab-separated: a `run_id` line, then one line per span."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"run_id\t{self.run_id}\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{start!r}\t{end!r}\t{parent}\n"
                for i, n, start, end, parent in zip(*self.columns)
            )


class InputsReady(Exception):
    """Raised by the set-up mark to end a --setup-only launch."""


def _mark_on_return(module, attr: str, marks: dict, key: str, stop: bool) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks[key] = time.monotonic()
        if stop:
            raise InputsReady
        return result

    setattr(module, attr, marked)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--marks", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    marks = {"start": _T_START}
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import miqado.cli as cli

    marks["imported"] = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"miqado imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = Tracer(args.run_id) if args.spans else None
    if tracer is not None:
        tracer.install()
    _mark_on_return(cli, INPUTS_READY[cli_args[0]], marks, "inputs_ready", args.setup_only)

    try:
        rc = cli.main(cli_args)
    except InputsReady:
        rc = 0
    marks["end"] = time.monotonic()
    sys.stdout.flush()
    with open(args.marks, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracer.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
