#!/usr/bin/env python3
"""Layered benchmark of the mrbleib command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coh-sparse --seed 0 --seconds 25 --trace 0

One process with one thread drives ``mrbleib.cli.main(argv)`` as a closed
loop with a single client, standard output captured.  A run repeats passes
over the workload's request list (each pass with fresh documents from the
seed) while the next pass still fits in ``--seconds``; every report is
checked by the independent evaluator after its pass.  With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` the first pass runs untraced and later passes run with spans
at every module boundary, and the JSON object carries the per-layer
metrics.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_RUNS = 7
# A run stops after this many passes even when time is left, so a much faster
# program cannot make a run outlast its time limit on untimed generation and
# checking; ``tests/`` proves the generators have documents for every pass.
MAX_PASSES = 40
GOLDEN = HERE / "golden.json"
SETUP_CODE = "import mrbleib.cli as cli; cli.build_parser()"


@dataclass
class Outcome:
    """One timed request; ``problem`` is None when its verdict is correct."""

    request: gen.Request
    seconds: float
    code: int | None
    out: str
    error: BaseException | None
    problem: str | None = None


def load_program(root: Path):
    """Import the checkout's mrbleib; None when the checkout has no source."""
    src = root / "src"
    if not (src / "mrbleib" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mrbleib.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "mrbleib").resolve():
        return None
    return cli


def measure_setup(root: Path) -> float:
    """Median time for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True)
        if i:  # the first start also writes the bytecode cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def materialize(requests, folder: Path):
    """Write each request's files and return its argv with real paths."""
    folder.mkdir(parents=True, exist_ok=True)
    argvs = []
    for n, req in enumerate(requests):
        paths = {}
        for name, text in req.files.items():
            path = folder / f"{n:03d}-{name}.json"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        argvs.append([
            paths.get(a[1:], str(folder / f"{n:03d}-{a[1:]}.missing")) if a.startswith("@") else a
            for a in req.argv
        ])
    return argvs


def invoke(main, argv, tracer=None, request_id=0):
    """One request: returns (exit code, stdout, escaped exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.request_span(request_id, main, argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - every escape is a failure
            error = exc
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), error, seconds


class Run:
    """Passes of one workload and the outcome of every request."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path, limit=None):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.workdir, self.limit = workdir, limit
        self.seen: set = set()
        self.pass_seconds: list[float] = []
        self.passes: list[list[Outcome]] = []
        self.tracers: list[Tracer] = []
        self._references: dict = {}

    def run_pass(self, index: int, traced: bool):
        requests = gen.requests(self.workload, self.seed, index, self.seen)
        if self.limit is not None:
            requests = requests[: self.limit]
        argvs = materialize(requests, self.workdir / f"pass{index}")
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        outcomes = []
        try:
            t0 = time.perf_counter()
            for rid, (req, argv) in enumerate(zip(requests, argvs)):
                code, out, error, seconds = invoke(self.cli.main, argv, tracer, rid)
                outcomes.append(Outcome(req, seconds, code, out, error))
            self.pass_seconds.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.tracers.append(tracer)
        for oc in outcomes:
            oc.problem = self.judge(oc)
        self.passes.append(outcomes)
        return outcomes

    @property
    def outcomes(self) -> list[Outcome]:
        return [oc for p in self.passes for oc in p]

    def reference(self, req) -> str:
        """Standard output of a reference request (untimed, cached per text)."""
        key = tuple(sorted(req.files.items())) + tuple(req.argv)
        if key not in self._references:
            (argv,) = materialize([req], self.workdir / f"ref{len(self._references)}")
            code, out, error, _ = invoke(self.cli.main, argv)
            if error is not None or code != 0:
                raise RuntimeError(f"reference request failed: {error or code}")
            self._references[key] = out
        return self._references[key]

    def judge(self, oc: Outcome):
        if oc.error is not None:
            return f"{type(oc.error).__name__} escaped main"
        ref = self.reference(oc.request.reference) if oc.request.reference else None
        return oc.request.verify(oc.code, oc.out, ref)


def golden_digests(outcomes) -> list[str]:
    return [
        hashlib.sha256(oc.out.encode("utf-8")).hexdigest()
        for oc in outcomes
        if not oc.request.contract_break
    ]


def apply_golden(workload: str, first_pass) -> str | None:
    """Mark each report of the default seed's first pass whose digest differs
    from the stored one; returns a problem with the stored list itself."""
    golden = json.loads(GOLDEN.read_text()).get(workload) if GOLDEN.is_file() else None
    checked = [oc for oc in first_pass if not oc.request.contract_break]
    if golden is None or len(golden) != len(checked):
        return f"golden digests for {workload} missing or of the wrong length"
    for oc, got, want in zip(checked, golden_digests(checked), golden):
        if got != want and oc.problem is None:
            oc.problem = "report digest differs from the golden one"
    return None


def execute(cli, workload, seed, seconds, trace, workdir: Path, limit=None):
    """Run passes until the next one would overrun ``seconds`` or the run has
    ``MAX_PASSES``; returns the Run."""
    run = Run(cli, workload, seed, workdir, limit)
    index = 0
    while True:
        run.run_pass(index, traced=bool(trace) and index > 0)
        index += 1
        if trace and index < 2:
            continue
        if index >= MAX_PASSES or sum(run.pass_seconds) + run.pass_seconds[-1] > seconds:
            return run


def end_to_end(run: Run, setup_s: float) -> dict:
    lat = [oc.seconds * 1000 for oc in run.outcomes]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(run.pass_seconds), "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    """Counts from the first traced pass (they repeat exactly for a seed);
    times are medians over the traced passes."""
    per_pass = [t.metrics() for t in run.tracers]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pass)
        out[name] = (value, unit)
    traced = statistics.median(run.pass_seconds[1:])
    out["trace.overhead_ratio"] = (traced / run.pass_seconds[0], "ratio")
    return out


def write_spans(run: Run, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for p, tracer in enumerate(run.tracers, start=1):
            for s in tracer.spans:
                fh.write(json.dumps({"pass": p, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store the first pass's report digests as the golden ones "
                        "(default seed only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = load_program(root)
    if cli is None:
        print(f"perfbench: no mrbleib sources under {root / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(root) if not args.trace else None
        run = execute(cli, args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run still uses it

    first_pass = run.passes[0]
    golden_problem = None
    if args.write_golden:
        if args.seed != gen.DEFAULT_SEED or any(
            oc.problem for oc in first_pass if not oc.request.contract_break
        ):
            print("perfbench: golden digests need the default seed and a clean pass",
                  file=sys.stderr)
            return 2
        data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        data[args.workload] = golden_digests(first_pass)
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    elif args.seed == gen.DEFAULT_SEED:
        golden_problem = apply_golden(args.workload, first_pass)

    failed = [oc for oc in run.outcomes if oc.problem]
    unexpected = [oc for oc in failed if not oc.request.contract_break]
    kinds = Counter(f"{oc.request.kind} ({oc.problem})" for oc in failed)
    print(f"# workload {args.workload} seed {args.seed}: {len(run.pass_seconds)} passes, "
          f"{len(run.outcomes)} requests, {len(failed)} failed")
    for kind, n in sorted(kinds.items()):
        print(f"# failed x{n}: {kind}")
    if golden_problem:
        print(f"# {golden_problem}")

    if args.trace:
        metrics = per_layer(run)
        write_spans(run, HERE / ".out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(run, setup_s)
        print(f"# latency samples: {len(run.outcomes)} ({len(run.passes)} passes); "
              "pass seconds: " + ", ".join(f"{s:.3f}" for s in run.pass_seconds))
    result = {
        "correct": not unexpected and golden_problem is None,
        "attempted": len(run.outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
