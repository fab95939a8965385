"""End-to-end benchmark of the relanno CLI loop against a remote-like endpoint.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its inputs from the seed, starts the benchmark's endpoint
(`endpoint.py`) in its own process, and runs the paper's loop as a user does,
one `relanno` process per command:
    ingest -> rank -> sample -> define -> annotate -> evaluate -> audit -> distill
Before `distill`, an untimed step keeps only the annotations of train queries x
train reports, since `distill` refuses test-split data by design. Every loop's
outputs are checked by `oracle.py`. Loops repeat while another one fits in
`--seconds` (at least one runs). The last line of output is one JSON object;
its metrics are the medians over the loops. With `--trace 1` the run makes
one plain and one traced loop (`tracer.py`) and reports the per-layer metrics
of the traced one, plus its extra wall time as `trace.overhead_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import LATENCY_MS, WORKLOADS, Workload, generate  # noqa: E402

STAGES = ("ingest", "rank", "sample", "define", "annotate", "evaluate", "audit", "distill")
VARIANT = "point-cot-ask-d"
# Set-ups per run; setup_s is their median. A set-up is the harness alone
# (input generation and endpoint start), a few tenths of a second of CPU.
SETUPS = 7
COMMAND_TIMEOUT_S = 150
ENTRY = "import sys; from relanno.cli import main; sys.exit(main())"

E2E_UNITS = {"setup_s": "s", "loop_s": "s", "rank_s": "s", "annotate_pairs_per_s": "pairs/s",
             "endpoint_requests": "count", "input_tokens": "count", "peak_rss_mb": "MB",
             "failed_share": "ratio"}


class BenchError(RuntimeError):
    """The loop could not run to the end (a command failed or hung)."""


def run_process(argv: list[str], env: dict, cwd: Path, log_path: Path) -> tuple[float, int, int]:
    """Run to completion; returns (wall seconds, peak RSS in KiB, exit code)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                env=env, cwd=cwd)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


class Endpoint:
    """The benchmark's endpoint process."""

    def __init__(self, spec_path: Path, log_path: Path):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "endpoint.py"), str(spec_path)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=self._log)
        line = self.proc.stdout.readline()
        if not line.strip():
            self.stop()
            raise BenchError("endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def _call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.load(response)

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Loop:
    walls: dict[str, float]
    peak_rss_kib: int
    attempted: int
    failed_pairs: int
    stats: dict
    problems: list[str]
    spans: list[Path] = field(default_factory=list)

    @property
    def loop_s(self) -> float:
        return sum(self.walls.values())

    def metrics(self) -> dict[str, float]:
        return {"loop_s": self.loop_s, "rank_s": self.walls["rank"],
                "annotate_pairs_per_s": self.attempted / self.walls["annotate"],
                "endpoint_requests": self.stats["requests"],
                "input_tokens": self.stats["input_tokens"],
                "peak_rss_mb": self.peak_rss_kib / 1024,
                "failed_share": self.failed_pairs / self.attempted}


def write_train_annotations(out: Path) -> None:
    """Keep annotations of train queries x train reports (the untimed filter)."""
    with open(out / "corpus/split.json", encoding="utf-8") as f:
        split = json.load(f)
    report_of = {row["id"]: row["report_id"]
                 for row in oracle.read_jsonl(out / "corpus/documents.jsonl")}
    queries, reports = set(split["train_queries"]), set(split["train_reports"])
    with open(out / "annotations.jsonl", encoding="utf-8") as src, \
            open(out / "train_annotations.jsonl", "w", encoding="utf-8") as dst:
        for line in src:
            row = json.loads(line)
            if row["query_id"] in queries and report_of[row["doc_id"]] in reports:
                dst.write(line)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 latency_ms: dict = LATENCY_MS):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.latency_ms = latency_ms
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("RELANNO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.parallelism = len(os.sched_getaffinity(0))
        self.endpoint: Endpoint | None = None
        self.ranker = oracle.ReferenceRanker()
        self.commands_run = 0
        self.commands_failed = 0

    def set_up(self, n: int) -> float:
        """Generate the inputs and start the endpoint; returns the seconds taken."""
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None
        start = time.perf_counter()
        self.inputs = self.work / f"inputs{n}"
        self.spec = generate(self.workload, self.seed, self.inputs, self.latency_ms)
        self.endpoint = Endpoint(self.inputs / "spec.json", self.work / "endpoint.log")
        return time.perf_counter() - start

    def commands(self, out: Path, config: Path) -> list[tuple[str, list[str]]]:
        inputs, corpus = self.inputs, out / "corpus"
        w = self.workload
        args = {
            "ingest": ["--queries", inputs / "queries.jsonl", "--documents",
                       inputs / "documents.jsonl", "--gold", inputs / "gold.jsonl",
                       "--out-dir", corpus],
            "rank": ["--queries", corpus / "queries.jsonl", "--documents",
                     corpus / "documents.jsonl", "--out", out / "rankings.jsonl"],
            "sample": ["--rankings", out / "rankings.jsonl", "--out", out / "pairs.jsonl",
                       "--k", w.k, "--per-side", w.per_side],
            "define": ["--queries", corpus / "queries.jsonl", "--out", out / "defined.jsonl"],
            "annotate": ["--pairs", out / "pairs.jsonl", "--queries", out / "defined.jsonl",
                         "--documents", corpus / "documents.jsonl",
                         "--out", out / "annotations.jsonl", "--errors", out / "errors.jsonl",
                         "--variant", VARIANT, "--calibration", "both",
                         "--parallelism", self.parallelism],
            "evaluate": ["--annotations", out / "annotations.jsonl",
                         "--gold", inputs / "gold.jsonl", "--out", out / "report.json"],
            "audit": ["--annotations", out / "annotations.jsonl",
                      "--original", inputs / "gold.jsonl", "--out", out / "audit.jsonl",
                      "--verdicts", inputs / "verdicts.jsonl"],
            "distill": ["--annotations", out / "train_annotations.jsonl",
                        "--queries", out / "defined.jsonl",
                        "--documents", corpus / "documents.jsonl",
                        "--split", corpus / "split.json", "--out", out / "train.jsonl",
                        "--manifest", out / "manifest.json", "--variant", VARIANT],
        }
        return [(stage, ["--config", str(config), stage] + [str(a) for a in args[stage]])
                for stage in STAGES]

    def loop(self, label: str, cache: Path, traced: bool = False) -> Loop:
        out = self.work / label
        out.mkdir(parents=True)
        config = out / "relanno.conf"
        config.write_text(f"base_url={self.endpoint.url}\ncache_dir={cache}\n", encoding="utf-8")
        self.endpoint.reset()
        walls, rss, spans = {}, [], []
        for stage, args in self.commands(out, config):
            if stage == "distill":
                try:
                    write_train_annotations(out)
                except (OSError, ValueError, KeyError) as exc:
                    raise BenchError(f"unreadable annotate output: {exc!r}") from exc
            if traced:
                spans.append(out / f"{stage}.spans.jsonl")
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans[-1])] + args
            else:
                argv = [sys.executable, "-c", ENTRY] + args
            wall, rss_kib, code = run_process(argv, self.env, self.root, out / "commands.log")
            self.commands_run += 1
            if code != 0:
                self.commands_failed += 1
                log = (out / "commands.log").read_text(encoding="utf-8", errors="replace")
                raise BenchError(f"relanno {stage} exited with {code}:\n{log[-2000:]}")
            walls[stage] = wall
            rss.append(rss_kib)
        stats = self.endpoint.stats()
        pairs, annotated = ({(r["query_id"], r["doc_id"]) for r in oracle.read_jsonl(out / name)}
                            for name in ("pairs.jsonl", "annotations.jsonl"))
        if not pairs:
            raise BenchError("sample wrote no pairs")
        problems = oracle.check_loop(out, self.spec, self.ranker)
        return Loop(walls, max(rss), len(pairs), len(pairs - annotated), stats, problems, spans)

    def run(self, seconds: float, trace: bool) -> dict:
        setup_times = [self.set_up(n) for n in range(SETUPS)]
        loops: list[Loop] = []
        start = time.perf_counter()
        while True:
            label = f"loop{len(loops)}"
            loops.append(self.loop(label, self.work / label / "cache",
                                   traced=trace and len(loops) == 1))
            if not loops[-1].spans:
                shutil.rmtree(self.work / label)
            elapsed = time.perf_counter() - start
            if len(loops) == 2 if trace else elapsed * (len(loops) + 1) / len(loops) > seconds:
                break
        problems = [p for lp in loops for p in lp.problems]
        plain = [lp for lp in loops if not lp.spans]
        samples = {name: [lp.metrics()[name] for lp in plain]
                   for name in E2E_UNITS if name != "setup_s"}
        samples["setup_s"] = setup_times
        for n, lp in enumerate(loops):
            kind = "traced" if lp.spans else "plain"
            print(f"loop {n} ({kind}): " + " ".join(f"{s}={lp.walls[s]:.3f}s" for s in STAGES)
                  + f" loop={lp.loop_s:.3f}s requests={lp.stats['requests']}"
                  f" peak_in_flight={lp.stats['peak_in_flight']}")
        print("samples " + json.dumps({"workload": self.workload.name, "seed": self.seed,
                                       "trace": trace, **samples,
                                       "stages": [lp.walls for lp in loops]}))
        for problem in problems:
            print(f"oracle: {problem}", file=sys.stderr)
        if trace:
            traced = next(lp for lp in loops if lp.spans)
            metrics = layers.layer_metrics(traced.spans, traced.stats,
                                           traced.loop_s - statistics.median(samples["loop_s"]))
            units = layers.UNITS
        else:
            metrics = {name: statistics.median(values) for name, values in samples.items()}
            units = E2E_UNITS
        return {"correct": not problems, "attempted": self.commands_run,
                "failed": self.commands_failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]}
                            for name in units}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopping the run stops its endpoint and any command still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src/relanno/cli.py").is_file():
        print("perfbench: no relanno source at src/relanno; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
    try:
        result = bench.run(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": max(bench.commands_run, 1),
                  "failed": max(bench.commands_failed, 1), "metrics": {}}
    finally:
        if bench.endpoint is not None:
            bench.endpoint.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
