"""One workload process: set up, run the timed operations, write the outputs.

Started by run.py, never by hand:

    python3 perfbench/workload.py SPEC_JSON OUT_DIR T0 TRACE

SPEC_JSON describes the workload (see run.py), OUT_DIR receives its CSV,
manifest or solve records, and T0 is run.py's time.monotonic() just before
it started this process; CLOCK_MONOTONIC is shared by all processes, so
set-up time counts from process start.  TRACE=1 wraps the layers (spans.py).
The last line of stdout is a JSON report.

fedsgm is imported from ./src of the checkout the process runs in.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

SRC = os.path.abspath("src")


def _simulate(cli, spec, out_dir, marks):
    run_federation = cli.run_federation

    def timed_run(*args, **kwargs):
        marks["ops_start"] = time.monotonic()
        result = run_federation(*args, **kwargs)
        marks["ops_end"] = time.monotonic()
        return result

    cli.run_federation = timed_run
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", spec["config"], "--out-dir", out_dir])
    if code != 0:
        raise SystemExit(f"fed-sgm simulate exited with {code}")
    return spec["rounds"]


def _calibrate(cli, spec, out_dir, marks):
    marks["ops_start"] = time.monotonic()
    records = []
    for solve in spec["solves"]:
        argv = ["calibrate", "--json"]
        for key in ("eps", "delta", "q", "T", "tau", "b"):
            argv += [f"--{key}", repr(solve[key])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"fed-sgm {' '.join(argv)} exited with {code}")
        records.append(json.loads(out.getvalue()))
    marks["ops_end"] = time.monotonic()
    with open(os.path.join(out_dir, "solves.json"), "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    return len(records)


def main(argv):
    spec_path, out_dir, t0, trace = argv
    t0, trace = float(t0), trace == "1"
    with open(spec_path) as fh:
        spec = json.load(fh)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fedsgm
    import fedsgm.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(fedsgm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fedsgm imported from {fedsgm.__file__}, not from {SRC}")

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    run = _simulate if spec["kind"] == "simulate" else _calibrate
    report = {"import_s": import_s}
    report["ops"] = run(fedsgm.cli, spec, out_dir, marks)
    report["setup_s"] = marks["ops_start"] - t0
    report["ops_s"] = marks["ops_end"] - marks["ops_start"]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "sketch_rows": tracer.sketch_rows,
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
