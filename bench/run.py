"""End-to-end benchmark of the ``clasp`` pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload pizza-augment --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Workloads:

* ``pizza-augment``: preprocess-pizza, augment rs and gb over the whole
  preprocessed pool, then mix. Mock backend, one request in flight.
* ``mtop-crosslingual``: preprocess-mtop (plain and with sentinels),
  augment ts (which builds the slot n-best) and tb, project-mt, score with
  uem and sciem. Mock backend, one request in flight.
* ``http-backend``: augment rs on a small preprocessed pool against a
  replaying HTTP stub with a fixed latency and ``nproc`` requests in
  flight.

Each workload is a closed loop: the CLI sends its next backend request
only when one of its ``--max-inflight`` slots frees. Inputs are generated
from ``--seed``, and the CLI sees only the generated files.

With ``--trace 0`` each stage runs as a child process forked from a
pre-imported interpreter (``forkserver.py``) and is timed from outside;
the whole stage sequence repeats until ``--seconds`` have passed, and
each stage counts with its fastest round. ``setup_s`` is the
median start of a fresh ``python -m clasp.cli report`` on a tiny record,
the part a stage's time leaves out. With ``--trace 1`` each stage runs in
this process through ``clasp.cli.main``, once untraced and once traced
(``tracer.py``), and the per-layer metrics of ``BENCHMARK.json`` are
reported. Outputs are checked for correctness and hashed in every round.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import logging
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Keep bench/ free of byte-code caches; the CLI children still write theirs.
sys.dont_write_bytecode = True

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# A run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
NPROC = len(os.sched_getaffinity(0))

# Workload sizes.
PIZZA_ROWS = 20_000
PIZZA_K = 500
MTOP_ROWS = 4_500
TS_K = 4_500
TB_K = 1_000
MTOP_LANGS = ("de", "es", "fr")
PROJECT_EXAMPLES = 1_000
SCORE_PAIRS = 3_000
HTTP_ROWS = 2_000
HTTP_K = 600
HTTP_LATENCY_S = 0.02
SETUP_SAMPLES = 5


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "clasp" / "cli.py").is_file():
    _fail("run from the root of a clasp checkout: src/clasp/cli.py not found")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (imports clasp from src/)
import inputs  # noqa: E402
from clasp.trees import Dialect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
))


@dataclass
class Stage:
    """One CLI call. ``ops`` operations; ``check`` returns how many failed."""

    name: str
    kind: str  # "preprocess" | "augment" | "downstream"
    argv: list[str]
    ops: int
    check: Callable[[], int]
    outputs: list[Path]
    env: dict[str, str] = field(default_factory=dict)

    def digest(self) -> dict[str, str]:
        return {p.name: checks.sha256(p) for p in self.outputs}


# ------------------------------------------------------------------ children


class ForkServer:
    """Client of ``forkserver.py``: runs stages as forked children."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "forkserver.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT,
            text=True,
        )

    def run(self, stage: Stage, log: Path, deadline: float) -> tuple[float, float, int]:
        """(wall seconds, the child's own peak RSS in MB, exit code)."""
        req = {"argv": stage.argv, "env": stage.env, "log": str(log),
               "timeout": deadline - time.monotonic()}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("fork server died")
        res = json.loads(line)
        return res["wall_s"], res["maxrss_kb"] / 1024.0, res["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(work: Path) -> float:
    """Wall seconds of a fresh ``python -m clasp.cli report`` on a tiny record."""
    argv = [sys.executable, "-m", "clasp.cli", "report", "--in", str(work / "tiny.json")]
    with open(work / "setup.log", "ab") as log:
        t0 = time.perf_counter()
        code = subprocess.run(argv, stdout=log, stderr=log, env=CHILD_ENV, cwd=ROOT,
                              timeout=60).returncode
        wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}; see {work / 'setup.log'}")
    return wall


def import_times() -> dict[str, float]:
    """Cumulative import seconds of clasp and of requests (``-X importtime``)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import clasp.cli"],
        env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return {
        "clasp": cumulative.get("clasp", 0.0) + cumulative.get("clasp.cli", 0.0),
        "requests": cumulative.get("requests", 0.0),
    }


def in_process(stage: Stage, tr=None) -> tuple[float, int]:
    """Run one stage through ``clasp.cli.main`` in this process, traced
    when ``tr`` is given; (wall seconds, exit code)."""
    import clasp.cli

    code = None

    def call() -> None:
        nonlocal code
        code = clasp.cli.main(stage.argv)

    logging.getLogger("clasp").setLevel(logging.WARNING)
    saved = {k: os.environ.get(k) for k in stage.env}
    os.environ.update(stage.env)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tr is None:
                t0 = time.perf_counter()
                call()
                wall = time.perf_counter() - t0
            else:
                wall = tr.run(stage.name, call)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    if code != 0:
        print(f"bench: {stage.name} exited {code}", file=sys.stderr)
    return wall, code


# ----------------------------------------------------------------- workloads


def _catalog() -> dict:
    return json.loads((SRC / "clasp" / "data" / "pizza_catalog.json").read_text())


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


class Workload:
    name = ""
    # (stage name, requests in flight, injected latency) of the stage that
    # talks to the HTTP stub, if any.
    http_stage: tuple[str, int, float] | None = None

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self._pool_keys: dict[Path, set] = {}

    def prepare(self) -> None:
        """Generate inputs; untimed."""

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def backend_requests(self) -> int:
        """Generation requests the HTTP stub has received so far."""
        return 0

    def pool_keys(self, path: Path) -> set:
        if path not in self._pool_keys:
            self._pool_keys[path] = {checks.row_key(r) for r in checks.read_records(path)}
        return self._pool_keys[path]

    def f(self, name: str) -> Path:
        return self.work / name

    def augment_stage(self, name: str, method: str, dataset: Path, k: int,
                      dialect: Dialect, *extra: str) -> Stage:
        out = self.f(f"{name}.jsonl")
        argv = ["augment", "--method", method, "--dataset", str(dataset),
                "--k", str(k), "--seed", str(self.seed), "--backend", "mock",
                "--mock-rules", str(self.f("rules.json")), "--max-inflight", "1",
                "--out", str(out), *extra]
        return Stage(
            name, "augment", argv, k,
            lambda: checks.augment(out, k, dialect, self.pool_keys(dataset)),
            [out, self.f(f"{name}.stats.json"), self.f(f"{name}.stats.txt")],
        )

    def pizza_stage(self, n: int) -> Stage:
        pool = self.f("pool.jsonl")
        return Stage(
            "preprocess-pizza", "preprocess",
            ["preprocess-pizza", "--in", str(self.f("pizza.jsonl")), "--out", str(pool)],
            n, lambda: checks.preprocess(pool, n, Dialect.PIZZA_PAREN), [pool],
        )


class PizzaAugment(Workload):
    name = "pizza-augment"

    def prepare(self) -> None:
        inputs.pizza_rows(self.f("pizza.jsonl"), self.rng, _catalog(), PIZZA_ROWS)
        _write_json(self.f("rules.json"), inputs.pizza_rules())

    def stages(self) -> list[Stage]:
        pre = self.pizza_stage(PIZZA_ROWS)
        pool = pre.outputs[0]
        rs = self.augment_stage("rs", "rs", pool, PIZZA_K, Dialect.PIZZA_PAREN)
        gb = self.augment_stage("gb", "gb", pool, PIZZA_K, Dialect.PIZZA_PAREN)
        manifest, plan = self.f("manifest.jsonl"), self.f("manifest.plan.json")
        synthetic = {"clasp-rs": rs, "clasp-gb": gb}
        mix = ["mix", "--real", str(pool), "--updates", "1000", "--batch", "32",
               "--seed", str(self.seed), "--out", str(manifest)]
        for tag, stage in synthetic.items():
            mix += ["--synthetic", f"{tag}={stage.outputs[0]}"]
        counts = {tag: stage.ops for tag, stage in synthetic.items()}
        return [pre, rs, gb, Stage(
            "mix", "downstream", mix, PIZZA_ROWS + sum(counts.values()),
            lambda: checks.mix(manifest, plan, PIZZA_ROWS, counts), [manifest, plan],
        )]


class MtopCrosslingual(Workload):
    name = "mtop-crosslingual"

    def prepare(self) -> None:
        tsv = self.f("mtop.tsv")
        inputs.mtop_rows(tsv, self.rng, MTOP_ROWS)
        pool = inputs.english_pool(tsv)
        self.n_mt = inputs.mt_records(self.f("mt.jsonl"), self.f("align.jsonl"),
                                      self.rng, pool[:PROJECT_EXAMPLES], MTOP_LANGS)
        self.n_score = inputs.score_records(
            self.f("hyp.jsonl"), self.f("ref.jsonl"), self.rng, pool[:SCORE_PAIRS],
            ("en",) + MTOP_LANGS)
        self.pool_ids = {ex["id"] for ex in pool}
        _write_json(self.f("rules.json"), inputs.mtop_rules())

    def stages(self) -> list[Stage]:
        f, tsv, langs = self.f, str(self.f("mtop.tsv")), ",".join(MTOP_LANGS)
        pool, sent, proj = f("mtop_pool.jsonl"), f("mtop_sent.jsonl"), f("proj.jsonl")
        ts = self.augment_stage("ts", "ts", pool, TS_K, Dialect.MTOP_BRACKET,
                                "--langs", langs, "--nbest-out", str(f("nbest.json")))
        ts.outputs.append(f("nbest.json"))
        out = [
            Stage("preprocess-mtop", "preprocess",
                  ["preprocess-mtop", "--in", tsv, "--out", str(pool)], MTOP_ROWS,
                  lambda: checks.preprocess(pool, MTOP_ROWS, Dialect.MTOP_BRACKET),
                  [pool]),
            Stage("preprocess-mtop-sentinels", "preprocess",
                  ["preprocess-mtop", "--in", tsv, "--out", str(sent), "--sentinels"],
                  MTOP_ROWS, lambda: checks.sentinels(sent, MTOP_ROWS), [sent]),
            ts,
            self.augment_stage("tb", "tb", pool, TB_K, Dialect.MTOP_BRACKET,
                               "--langs", langs, "--nbest-in", str(f("nbest.json"))),
            Stage("project-mt", "downstream",
                  ["project-mt", "--dataset", str(pool), "--mt", str(f("mt.jsonl")),
                   "--align", str(f("align.jsonl")), "--out", str(proj),
                   "--check-sentence-marker", "--source-tag", "mt-20b"],
                  self.n_mt,
                  lambda: checks.project(proj, f("proj.stats.json"), self.n_mt,
                                         self.pool_ids),
                  [proj, f("proj.stats.json")]),
        ]
        for metric in ("uem", "sciem"):
            dest = f(f"score_{metric}.json")
            out.append(Stage(
                f"score-{metric}", "downstream",
                ["score", "--hyp", str(f("hyp.jsonl")), "--ref", str(f("ref.jsonl")),
                 "--metric", metric, "--out", str(dest)],
                self.n_score,
                lambda dest=dest: checks.score(dest, self.n_score, {"en", *MTOP_LANGS}),
                [dest],
            ))
        return out


class HttpBackend(Workload):
    name = "http-backend"
    http_stage = ("rs-http", NPROC, HTTP_LATENCY_S)
    stub: subprocess.Popen | None = None
    url = ""
    stub_rate_frac = 0.0

    def prepare(self) -> None:
        """Inputs, the pool, the mock's reference output and the stub."""
        inputs.pizza_rows(self.f("pizza.jsonl"), self.rng, _catalog(), HTTP_ROWS)
        _write_json(self.f("rules.json"), inputs.pizza_rules())
        if in_process(self.pizza_stage(HTTP_ROWS))[1] != 0:
            raise RuntimeError("preparing the pool failed")
        self.record_mock()
        self.start_stub()

    def record_mock(self) -> None:
        """Run the rs call on the mock backend, keeping the outputs of each
        prompt (the stub's replay table) and the output file (the
        reference the HTTP run must reproduce byte for byte)."""
        from clasp.backends import MockBackend

        original = MockBackend.generate
        replay: dict[str, list[dict]] = {}

        def recording(backend, prompt, cfg):
            outs = original(backend, prompt, cfg)
            replay[prompt.text] = [{"text": o.text, "score": o.score} for o in outs]
            return outs

        stage = self.augment_stage("rs-mock", "rs", self.f("pool.jsonl"), HTTP_K,
                                   Dialect.PIZZA_PAREN)
        MockBackend.generate = recording
        try:
            code = in_process(stage)[1]
        finally:
            MockBackend.generate = original
        if code != 0:
            raise RuntimeError("mock reference run failed")
        _write_json(self.f("replay.json"), replay)

    def start_stub(self) -> None:
        port_file = self.f("stub.port")
        with open(self.f("stub.log"), "wb") as log:
            self.stub = subprocess.Popen(
                [sys.executable, str(BENCH / "stub.py"),
                 "--replay", str(self.f("replay.json")),
                 "--latency", str(HTTP_LATENCY_S), "--port-file", str(port_file)],
                stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT,
            )
        give_up = time.monotonic() + 30
        while not port_file.exists():
            if self.stub.poll() is not None or time.monotonic() > give_up:
                raise RuntimeError(f"stub did not start; see {self.f('stub.log')}")
            time.sleep(0.02)
        self.url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        self.stub_rate_frac = self.stub_self_check()

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", int(self.url.rsplit(":", 1)[1]), timeout=10)

    def stub_self_check(self) -> float:
        """Request rate of the stub alone, as a share of in-flight ÷ latency.

        ``NPROC`` client threads, each with its own keep-alive connection,
        send recorded prompts back to back.
        """
        bodies = [json.dumps({"prompt": p}).encode()
                  for p in list(json.loads(self.f("replay.json").read_text()))[:40]]

        def client(done: list) -> None:
            conn = self._connection()
            try:
                for body in bodies:
                    conn.request("POST", "/generate", body=body,
                                 headers={"Content-Type": "application/json"})
                    conn.getresponse().read()
            finally:
                conn.close()
            done.append(len(bodies))

        best = 0.0
        for _ in range(3):
            done: list[int] = []
            threads = [threading.Thread(target=client, args=(done,)) for _ in range(NPROC)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            rate = sum(done) / (time.perf_counter() - t0)
            best = max(best, rate / (NPROC / HTTP_LATENCY_S))
            if best >= 0.9:
                break
        if best < 0.9:
            print(f"bench: warning: the stub alone reached only {best:.0%} of "
                  f"in-flight/latency", file=sys.stderr)
        return best

    def backend_requests(self) -> int:
        conn = self._connection()
        try:
            conn.request("GET", "/stats")
            return int(json.loads(conn.getresponse().read())["requests"])
        finally:
            conn.close()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub = None

    def stages(self) -> list[Stage]:
        pool = self.f("pool.jsonl")
        rs = self.augment_stage("rs-http", "rs", pool, HTTP_K, Dialect.PIZZA_PAREN)
        rs.argv[rs.argv.index("--backend") + 1] = "http"
        rs.argv[rs.argv.index("--max-inflight") + 1] = str(NPROC)
        i = rs.argv.index("--mock-rules")
        del rs.argv[i : i + 2]
        rs.env = {"CLASP_BACKEND_ENDPOINT": self.url + "/generate"}
        check_rows = rs.check

        def check_rs() -> int:
            same = rs.outputs[0].read_bytes() == self.f("rs-mock.jsonl").read_bytes()
            return check_rows() if same else HTTP_K

        rs.check = check_rs
        return [rs]


WORKLOADS = {w.name: w for w in (PizzaAugment, MtopCrosslingual, HttpBackend)}


# --------------------------------------------------------------------- runs


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median(values)


class Checker:
    """Checks each stage's outputs once, then requires every later run of
    the stage to write byte-identical files (same inputs, same seed)."""

    def __init__(self) -> None:
        self.digests: dict[str, dict[str, str]] = {}
        self.failed: dict[str, int] = {}
        self.consistent = True

    def __call__(self, stage: Stage) -> int:
        missing = [p for p in stage.outputs if not p.exists()]
        if missing:
            print(f"bench: {stage.name} wrote no {missing[0].name}", file=sys.stderr)
            return stage.ops
        digest = stage.digest()
        first = self.digests.setdefault(stage.name, digest)
        if stage.name not in self.failed or digest != first:
            if digest != first:
                self.consistent = False
                print(f"bench: {stage.name} outputs changed between rounds",
                      file=sys.stderr)
            self.failed[stage.name] = min(stage.ops, stage.check())
            if self.failed[stage.name]:
                print(f"bench: {stage.name}: {self.failed[stage.name]} of {stage.ops} "
                      f"operations failed the check", file=sys.stderr)
        return self.failed[stage.name]


def _more_rounds(start: float, done: int, seconds: float,
                        deadline: float) -> bool:
    """Rounds go on until ``seconds`` have passed, unless one more would
    overrun the deadline."""
    now = time.monotonic()
    return now - start < seconds and now + 1.5 * (now - start) / done < deadline


def round_metrics(stages: list[Stage], walls: list[float], rss: list[float]) -> dict:
    augment = [(s.ops, w) for s, w in zip(stages, walls) if s.kind == "augment"]
    return {
        "wall_s": sum(walls),
        "augment_ex_per_s": sum(k for k, _ in augment) / sum(w for _, w in augment),
        "peak_rss_mb": max(rss),
    }


def timed_run(wl: Workload, seconds: float, deadline: float) -> dict:
    stages = wl.stages()
    measure_setup(wl.work)  # warm-up: byte-compiles the package
    setup = [measure_setup(wl.work) for _ in range(SETUP_SAMPLES)]
    server = ForkServer()
    check = Checker()
    rounds: list[dict] = []
    per_stage: dict[str, list[tuple[float, float]]] = {s.name: [] for s in stages}
    attempted = failed = 0
    try:
        loop_start = time.monotonic()
        while True:
            walls, rss = [], []
            for s in stages:
                wall, mb, code = server.run(s, wl.f(f"{s.name}.log"), deadline)
                walls.append(wall)
                rss.append(mb)
                per_stage[s.name].append((wall, mb))
                attempted += s.ops
                if code != 0:
                    print(f"bench: {s.name} exited {code}; see {wl.f(s.name + '.log')}",
                          file=sys.stderr)
                    failed += s.ops
                else:
                    failed += check(s)
            rounds.append(round_metrics(stages, walls, rss))
            setup.append(measure_setup(wl.work))
            if not _more_rounds(loop_start, len(rounds), seconds, deadline):
                break
    finally:
        server.close()
    # Each stage counts with its fastest round. Other tenants of a shared
    # host only ever slow a stage down; on a 2-vCPU Xeon VM the same stage
    # varied by up to 1.7x between rounds, and over ten runs per workload
    # the fastest round spread less than the median did (16-23% against
    # 25-32% inter-quartile range).
    metrics = round_metrics(stages, [min(w for w, _ in per_stage[s.name]) for s in stages],
                            [max(m for _, m in per_stage[s.name]) for s in stages])
    metrics["setup_s"] = median(setup)
    spreads = {name: spread([r[name] for r in rounds]) for name in rounds[0]}
    spreads["setup_s"] = spread(setup)
    return {
        "rounds": len(rounds), "metrics": metrics, "spreads": spreads,
        "attempted": attempted, "failed": failed, "checker": check,
        "stage_walls": {name: [w for w, _ in v] for name, v in per_stage.items()},
        "stages": {
            s.name: {"wall_s": min(w for w, _ in per_stage[s.name]),
                     "rss_mb": max(m for _, m in per_stage[s.name]),
                     "ops": s.ops, "kind": s.kind}
            for s in stages
        },
    }


def traced_run(wl: Workload, seconds: float, deadline: float) -> dict:
    import tracer

    stages = wl.stages()
    tasks = {s.name: s.ops for s in stages if s.kind == "augment"}
    check = Checker()
    passes: list[dict] = []
    attempted = failed = 0
    loop_start = time.monotonic()
    while True:
        tr = tracer.Tracer()
        untraced = traced = 0.0
        walls: dict[str, float] = {}
        requests_seen = 0
        for s in stages:
            untraced += in_process(s)[0]
            before = wl.backend_requests()
            tr.install()
            try:
                walls[s.name], code = in_process(s, tr)
            finally:
                tr.uninstall()
            requests_seen += wl.backend_requests() - before
            traced += walls[s.name]
            attempted += s.ops
            failed += s.ops if code != 0 else check(s)
        m = tr.layer_metrics(walls, tasks, wl.http_stage, requests_seen)
        m["trace.untraced_wall_s"] = untraced
        m["trace.traced_wall_s"] = traced
        m["trace.overhead_frac"] = traced / untraced - 1.0
        passes.append(m)
        if not _more_rounds(loop_start, len(passes), seconds, deadline):
            break
    imports = [import_times() for _ in range(3)]
    metrics = {name: median([p[name] for p in passes]) for name in passes[0]}
    metrics["setup.import_s.clasp"] = median([i["clasp"] for i in imports])
    metrics["setup.import_s.requests"] = median([i["requests"] for i in imports])
    metrics["backends.stub_rate_frac"] = getattr(wl, "stub_rate_frac", 0.0)
    tr.write_spans(WORK / f"spans-{wl.name}.tsv")
    return {"rounds": len(passes), "metrics": metrics, "attempted": attempted,
            "failed": failed, "checker": check, "self_by_stage": tr.self_by_stage()}


# ---------------------------------------------------------------- reporting


def source_hash() -> str:
    """Hash of the package and of the benchmark, which makes its inputs."""
    h = hashlib.sha256()
    files = [*(SRC / "clasp").rglob("*"), *BENCH.glob("*.py"), ROOT / "BENCHMARK.json"]
    for path in sorted(files):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_info() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version()}


def report(wl: Workload, seed: int, res: dict, correct: bool) -> None:
    info = machine_info()
    print(f"workload {wl.name}  seed {seed}  rounds {res['rounds']}  "
          f"nproc {info['nproc']}  cpu {info['cpu']!r}  python {info['python']}")
    if "stages" in res:
        print(f"{'stage':28} {'kind':11} {'wall_s':>8} {'ops':>7} {'ops/s':>9} {'rss_mb':>7}")
        for name, st in res["stages"].items():
            print(f"{name:28} {st['kind']:11} {st['wall_s']:8.3f} {st['ops']:7d} "
                  f"{st['ops'] / st['wall_s']:9.1f} {st['rss_mb']:7.1f}")
        for m in SPEC["end_to_end"]:
            print(f"  {m['name']:24} {res['metrics'][m['name']]:12.4f} {m['unit']:5} "
                  f"spread over rounds {res['spreads'][m['name']]:.1%}")
        if wl.http_stage is not None:
            print(f"  stub alone: {wl.stub_rate_frac:.1%} of in-flight/latency")
    else:
        table = res["self_by_stage"]
        layers = sorted({layer for row in table.values() for layer in row})
        print("self seconds by stage and layer (last traced pass):")
        print(f"{'stage':26} " + " ".join(f"{layer[:10]:>10}" for layer in layers))
        for stage, row in table.items():
            print(f"{stage:26} " + " ".join(f"{row.get(layer, 0.0):10.3f}" for layer in layers)
                  + f"  largest: {max(row, key=row.get)}")
        for m in SPEC["per_layer"]:
            print(f"  {m['name']:40} {res['metrics'][m['name']]:14.6g} {m['unit']}")
    print(f"  failed_frac {res['failed'] / max(1, res['attempted']):.4f} "
          f"({res['failed']} of {res['attempted']} operations)  correct {correct}")
    for digest in res["checker"].digests.values():
        for name, sha in digest.items():
            print(f"  sha256 {sha[:16]}  {name}")


def run_one(args) -> dict:
    start = time.monotonic()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    try:
        (work / "tiny.json").write_text(json.dumps({"kind": "mix_plan", "total": 1}))
        wl.prepare()
        run = traced_run if args.trace else timed_run
        res = run(wl, args.seconds, start + HARD_LIMIT_S)
    finally:
        wl.close()
    # Byte-identical outputs across rounds, and across runs of one source tree.
    digests = res["checker"].digests
    consistent = res["checker"].consistent
    key = f"{source_hash()}:{args.workload}:{args.seed}"
    known_path = WORK / "digests.json"
    known = json.loads(known_path.read_text()) if known_path.exists() else {}
    if known.setdefault(key, digests) != digests:
        consistent = False
        print("bench: outputs differ from an earlier run of the same source and seed",
              file=sys.stderr)
    known_path.write_text(json.dumps(known, indent=1, sort_keys=True))
    correct = consistent and res["failed"] == 0
    report(wl, args.seed, res, correct)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_info(), "source": key.split(":")[0],
            "rounds": res["rounds"], "metrics": res["metrics"],
            "spreads": res.get("spreads", {}), "digests": digests,
            "stage_walls": res.get("stage_walls", {}),
            "attempted": res["attempted"], "failed": res["failed"],
            "elapsed_s": time.monotonic() - start,
        }) + "\n")
    shutil.rmtree(work)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": correct,
        "attempted": max(1, res["attempted"]),
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in its own process; a summary table."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARD_LIMIT_S + 60)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n\n")
        if proc.returncode != 0:
            _fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{n:>18}" for n in results))
    for m in declared:
        print(f"{m['name']:40} {m['unit']:6} " + " ".join(
            f"{r['metrics'][m['name']]['value']:18.6g}" for r in results.values()))
    print(f"{'failed_frac':40} {'frac':6} " + " ".join(
        f"{r['failed'] / r['attempted']:18.6g}" for r in results.values()))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
