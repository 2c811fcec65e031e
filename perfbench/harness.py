"""Runs one workload in this process and reports its metrics.

Timed runs (``trace=0``) are untraced. After an untimed warm-up iteration at
a reference seed, the harness runs whole iterations back to back (a closed
loop, one at a time) while the next one fits in ``seconds``, times the
workload's set-up alone several times before each, and reports medians. Traced runs
(``trace=1``) alternate untraced and traced iterations of the same seed and
report per-layer metrics from the traced ones.

Every iteration is checked: ``fedsim run`` exits 0; each cell's
``metrics.csv`` matches golden.json at a reference seed and repeats byte for
byte across iterations of one seed; every ``FederationController`` cell's
``audit_recompute()`` matches its incremental community model; and traced
iterations repeat the exact counts. An iteration that fails any check counts
in ``failed``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import fedsim
import fedsim.cli
import fedsim.simulator
from fedsim.config import parse_config
from fedsim.controller import FederationController
from fedsim.data import load_idx

import idxgen
import spans
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Same tolerance as acceptance criterion 1 (cache vs audit recompute).
AUDIT_RTOL = 1e-9
AUDIT_ATOL = 1e-12

# Before each timed iteration, set-up alone is timed at least this many times
# and until this much time is spent, so the set-up samples span the whole run.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_ROUND_SECONDS = 0.4

# Traced runs need two traced iterations to check that exact counts repeat.
MIN_TRACED_ITERATIONS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "epochs_per_s": "1/s",
    "commits_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-call timings: reported as p50 under the name itself, plus ".tail" (the
# highest of p90/p99/p99.9/p99.99 with at least ten samples beyond it, else
# p50) and ".n" (the sample count over all traced iterations).
PER_CALL_UNITS = {
    "config.parse_ms": "ms",
    "nn.backward_us": "us",
    "nn.sgd_step_us": "us",
    "weighting.fedasync_mix_us": "us",
    "controller.async_commit_us": "us",
    "controller.fedasync_commit_us": "us",
    "controller.sync_round_ms": "ms",
    "controller.audit_recompute_us": "us",
}

# Per-iteration totals, ratios and counts: the median over traced iterations.
PER_ITERATION_UNITS = {
    "data.ingest_s": "s",
    "data.split_s": "s",
    "nn.paramset_s": "s",
    "nn.paramset_builds_per_step": "count",
    "nn.evaluate_confusion_calls": "count",
    "nn.evaluate_confusion_s": "s",
    "learner.step_us": "us",
    "learner.run_epoch_self_s": "s",
    "learner.val_loss_s": "s",
    "learner.adopt_s": "s",
    "learner.epochs_per_commit": "count",
    "weighting.eval_report_s": "s",
    "weighting.dvw_weight_s": "s",
    "simulator.fanout_ms_per_commit": "ms",
    "simulator.self_s": "s",
    "simulator.test_eval_s": "s",
    "simulator.commits": "count",
    "simulator.epochs": "count",
    "simulator.steps": "count",
    "simulator.virtual_s": "s",
    "cli.artifacts_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between traced iterations of one seed.
EXACT_COUNTS = (
    "simulator.commits",
    "simulator.epochs",
    "simulator.steps",
    "simulator.virtual_s",
    "nn.evaluate_confusion_calls",
    "nn.paramset_builds_per_step",
)

# Where each layer's calls are looked up by their callers, and the span name.
TRACE_TARGETS = (
    ("fedsim.cli.parse_config", "config.parse"),
    ("fedsim.cli.run_single", "cli.run_single"),
    ("fedsim.cli.run_simulation_detailed", "simulator.run"),
    ("fedsim.simulator.build_federation", "simulator.build_federation"),
    ("fedsim.simulator.generate_blobs", "data.ingest"),
    ("fedsim.simulator.load_idx", "data.ingest"),
    ("fedsim.simulator.build_federated_split", "data.split"),
    ("fedsim.simulator.evaluate_test_accuracy", "simulator.test_eval"),
    ("fedsim.simulator.local_validation_loss", "learner.val_loss"),
    ("fedsim.simulator.adopt_community", "learner.adopt"),
    ("fedsim.simulator.evaluate_confusion", "nn.evaluate_confusion"),
    ("fedsim.simulator._Simulation._foreign_confusions", "simulator.fanout"),
    ("fedsim.simulator.EvalReport", "weighting.eval_report"),
    ("fedsim.simulator.dvw_weight", "weighting.dvw_weight"),
    ("fedsim.controller.fedasync_poly_mix", "weighting.fedasync_mix"),
    ("fedsim.controller.FederationController.handle_async_update", "controller.async_commit"),
    ("fedsim.controller.FederationController.handle_sync_round", "controller.sync_round"),
    ("fedsim.controller.FedAsyncController.handle_update", "controller.fedasync_commit"),
    ("fedsim.learner.backward", "nn.backward"),
    ("fedsim.learner.sgd_momentum_step", "nn.sgd_step"),
    ("fedsim.nn.ParameterSet.__init__", "nn.paramset"),
)
RUN_EPOCH_TARGET = ("fedsim.simulator.run_epoch", "learner.run_epoch")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, unit in PER_CALL_UNITS.items():
        units[name] = unit
        units[f"{name}.tail"] = unit
        units[f"{name}.n"] = "count"
    units.update(PER_ITERATION_UNITS)
    return units


# -- probes -----------------------------------------------------------------


class Probe:
    """Captures each cell's counts and controller.

    It wraps two functions that run once per cell (``run_simulation_detailed``
    and ``build_federation``), so it costs nothing measurable and stays on in
    timed runs. No reference to a cell's datasets outlives the cell.
    """

    def __init__(self) -> None:
        self.commits = 0
        self.epochs = 0
        self.virtual_s = 0.0
        self.controllers: list = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probe":
        run = fedsim.cli.run_simulation_detailed
        build = fedsim.simulator.build_federation

        def run_probe(cfg):
            result = run(cfg)
            self.commits += len(result.log) - 1
            self.epochs += sum(state.epochs_total for state in result.learners)
            self.virtual_s += result.virtual_duration
            return result

        def build_probe(cfg):
            wiring = build(cfg)
            self.controllers.append(wiring[-1])
            return wiring

        self._patch(fedsim.cli, "run_simulation_detailed", run_probe)
        self._patch(fedsim.simulator, "build_federation", build_probe)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- one iteration ----------------------------------------------------------


@dataclass
class Iteration:
    seed: int
    wall_s: float = 0.0
    commits: int = 0
    epochs: int = 0
    virtual_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    audit_us: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    tracer: spans.Tracer | None = None


def metrics_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every cell's metrics.csv, keyed by its path under ``out_dir``."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("metrics.csv"))
    }


def digest_mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """One message per cell whose digest differs or is missing on either side."""
    return [
        f"{cell}: metrics.csv sha256 {got.get(cell)} != expected {want.get(cell)}"
        for cell in sorted(set(got) | set(want))
        if got.get(cell) != want.get(cell)
    ]


def audit_errors(controllers, timings: list[float]) -> list[str]:
    """Compare each FederationController's audit recompute with its cache."""
    errors = []
    for cell, ctrl in enumerate(controllers):
        if not isinstance(ctrl, FederationController):
            continue
        t0 = perf_counter()
        audit = ctrl.audit_recompute()
        timings.append((perf_counter() - t0) * 1e6)
        current = ctrl.current_model()
        if not all(
            np.allclose(a, b, rtol=AUDIT_RTOL, atol=AUDIT_ATOL)
            for a, b in zip(audit.params.arrays, current.params.arrays)
        ):
            errors.append(f"cell {cell}: audit_recompute differs from the incremental community model")
    return errors


def run_iteration(cfg_path: Path, out_dir: Path, seed: int, tracer: spans.Tracer | None = None) -> Iteration:
    """Run ``fedsim run --config cfg_path`` in process and check its output."""
    it = Iteration(seed=seed, tracer=tracer)
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    probe = Probe()
    try:
        with probe, (tracer or contextlib.nullcontext()), contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                install_trace(tracer)
            t0 = perf_counter()
            code = fedsim.cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
            it.wall_s = perf_counter() - t0
        if code != 0:
            it.errors.append(f"fedsim run exited with code {code}")
    except Exception:  # the harness must report the failure and go on
        it.errors.append("exception:\n" + traceback.format_exc())
        return it
    it.commits, it.epochs, it.virtual_s = probe.commits, probe.epochs, probe.virtual_s
    it.digests = metrics_digests(out_dir)
    if not it.digests:
        it.errors.append("no metrics.csv written")
    it.errors.extend(audit_errors(probe.controllers, it.audit_us))
    return it


def install_trace(tracer: spans.Tracer) -> None:
    for target, name in TRACE_TARGETS:
        tracer.wrap(target, name)
    target, name = RUN_EPOCH_TARGET
    tracer.wrap(target, name, count=int)


def measure_setup(cfg_path: Path) -> float:
    """Seconds for what ``fedsim run`` does before its first simulated event:
    config parse, dataset build or ingest, split, federation wiring and the
    initial test evaluation, summed over the cells."""
    gc.collect()
    t0 = perf_counter()
    cfg = parse_config(str(cfg_path))
    cells = [cfg.with_scheme(s) for s in cfg.schemes] if cfg.schemes else [cfg]
    for cell in cells:
        _, split, _, _, controller = fedsim.simulator.build_federation(cell)
        fedsim.simulator.evaluate_test_accuracy(controller.current_model().params, split.test)
    return perf_counter() - t0


# -- reference checks -------------------------------------------------------


def platform_key() -> str:
    """numpy and BLAS build the golden digests are valid for."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; {blas_core()}"


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def check_golden(it: Iteration, workload: str, golden: dict) -> None:
    want = golden.get("digests", {}).get(workload, {}).get(str(it.seed))
    if want is None:
        return
    if golden.get("platform") != platform_key():
        print(
            f"note: golden digests were recorded on {golden.get('platform')!r}, "
            f"this is {platform_key()!r}; skipping the golden comparison",
            file=sys.stderr,
        )
        return
    it.errors.extend(f"golden {workload} seed {it.seed}: {m}" for m in digest_mismatches(it.digests, want))


def check_replay(it: Iteration, first: Iteration) -> None:
    """Same seed, same program: the outputs and counts must repeat exactly."""
    it.errors.extend(f"replay: {m}" for m in digest_mismatches(it.digests, first.digests))
    for attr in ("commits", "epochs", "virtual_s"):
        if getattr(it, attr) != getattr(first, attr):
            it.errors.append(f"replay: {attr} {getattr(it, attr)} != {getattr(first, attr)}")


def check_idx_roundtrip(raw_cfg: dict, seed: int) -> list[str]:
    """load_idx must read back the generated pixels and labels exactly."""
    ds = raw_cfg.get("dataset", {})
    if ds.get("kind") != "idx":
        return []
    errors = []
    for split, stream, per_class in (
        ("train", 0, workloads.MNIST_TRAIN_PER_CLASS),
        ("test", 1, workloads.MNIST_TEST_PER_CLASS),
    ):
        images, labels = idxgen.make_images(per_class, seed, stream)
        loaded = load_idx(ds[f"{split}_images"], ds[f"{split}_labels"], ds["num_classes"])
        # In place, so this check never sets the run's peak_rss_mb.
        pixels = loaded.features
        pixels *= 255.0
        np.rint(pixels, out=pixels)
        if not np.array_equal(pixels, images.reshape(images.shape[0], -1)):
            errors.append(f"idx {split}: load_idx pixels differ from the generated images")
        if not np.array_equal(loaded.labels, labels):
            errors.append(f"idx {split}: load_idx labels differ from the generated labels")
    return errors


# -- machine block ----------------------------------------------------------


def _openblas():
    import ctypes

    libs = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    if not libs:
        return None
    try:
        return ctypes.CDLL(str(libs[0]))
    except OSError:
        return None


def _openblas_call(names: tuple[str, ...], restype):
    """Call the first of ``names`` the bundled OpenBLAS exports, if any."""
    lib = _openblas()
    if lib is None:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_threads():
    import ctypes

    return _openblas_call(
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"),
        ctypes.c_int,
    )


def blas_core() -> str:
    import ctypes

    config = _openblas_call(
        ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p,
    )
    if not config:
        return "unknown"
    words = config.decode().split()
    # The config string ends in "<core> MAX_THREADS=<n>".
    return words[-2] if len(words) >= 2 else config.decode()


def machine_block(nproc: int, requested_threads: int, loadavg: tuple[float, float, float]) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": blas_core(),
        "blas_threads": blas_threads(),
        "blas_threads_requested": requested_threads,
        "nproc": nproc,
        "loadavg_start": list(loadavg),
        "fedsim": fedsim.__version__,
    }


# -- the two run modes ------------------------------------------------------


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _report_errors(iterations: list[Iteration]) -> int:
    failed = 0
    for n, it in enumerate(iterations):
        if it.errors:
            failed += 1
            for err in it.errors:
                print(f"iteration {n} (seed {it.seed}) FAILED: {err}", file=sys.stderr)
    return failed


def prepare(workload: str, seed: int, work_dir: Path) -> tuple[Path, list[str]]:
    work_dir.mkdir(parents=True, exist_ok=True)
    raw = workloads.WORKLOADS[workload](seed, work_dir / "data")
    cfg_path = work_dir / f"config-{seed}.json"
    cfg_path.write_text(json.dumps(raw, indent=2))
    return cfg_path, check_idx_roundtrip(raw, seed)


def warm_up(workload: str, seed: int, work_dir: Path) -> tuple[dict, Path, list[str], Iteration]:
    """Write the inputs for ``seed``, then run one untimed iteration at a
    reference seed and compare its digests with golden.json.

    Returns the golden digests, the config for ``seed``, errors found in its
    inputs, and the warm-up iteration.
    """
    golden = load_golden()
    warm_seed = workloads.REFERENCE_SEEDS[seed % len(workloads.REFERENCE_SEEDS)]
    warm_cfg, warm_errors = prepare(workload, warm_seed, work_dir)
    cfg_path, input_errors = prepare(workload, seed, work_dir)
    warm = run_iteration(warm_cfg, work_dir / "out-warm", warm_seed)
    warm.errors.extend(warm_errors)
    check_golden(warm, workload, golden)
    return golden, cfg_path, input_errors, warm


def setup_round(cfg_path: Path, setups: list[float]) -> list[str]:
    """Append a round of set-up timings to ``setups``; returns errors."""
    round_start = perf_counter()
    count = 0
    while count < SETUP_MAX_REPEATS and (
        count < SETUP_MIN_REPEATS or perf_counter() - round_start < SETUP_ROUND_SECONDS
    ):
        try:
            setups.append(measure_setup(cfg_path))
        except Exception:  # reported with the iteration that follows
            return ["set-up raised:\n" + traceback.format_exc()]
        count += 1
    return []


def fits(start: float, last: float, seconds: float) -> bool:
    """Whether another step as long as the last one ends within ``seconds``
    of ``start``; so a run never overruns its window, even on a slow host."""
    return perf_counter() - start + last <= seconds


def timed_run(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    golden, cfg_path, input_errors, warm = warm_up(workload, seed, work_dir)
    iterations = [warm]

    start = perf_counter()
    setups: list[float] = []
    timed: list[Iteration] = []
    while not timed or fits(start, timed[-1].wall_s + SETUP_ROUND_SECONDS, seconds):
        setup_errors = setup_round(cfg_path, setups)
        it = run_iteration(cfg_path, work_dir / "out", seed)
        it.errors.extend(setup_errors)
        check_golden(it, workload, golden)
        if timed:
            check_replay(it, timed[0])
        else:
            it.errors.extend(input_errors)
        timed.append(it)
        if it.errors and not it.wall_s:
            break
    iterations.extend(timed)
    failed = _report_errors(iterations)

    wall = _median([it.wall_s for it in timed])
    setup = _median(setups)
    run_phase = wall - setup
    first = timed[0]
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "epochs_per_s": first.epochs / run_phase if run_phase > 0 else 0.0,
        "commits_per_s": first.commits / run_phase if run_phase > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = " ".join(f"{it.wall_s:.3f}" for it in timed)
    _print_table(workload, metrics, END_TO_END_UNITS, failed, len(iterations),
                 extra=f"{len(setups)} set-ups; iteration walls (s): {walls}")
    return _result(failed, len(iterations), metrics, END_TO_END_UNITS)


def layer_metrics(it: Iteration) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Per-iteration totals and per-call samples from one traced iteration."""
    tr = it.tracer
    cols = tr.arrays()
    ids = {name: n for n, name in enumerate(tr.names)}

    def mask(name):
        return cols["name_id"] == ids[name] if name in ids else np.zeros(cols["name_id"].size, bool)

    def total(name, col="duration"):
        return float(cols[col][mask(name)].sum())

    def samples(name, scale):
        return cols["duration"][mask(name)] * scale

    steps = tr.counts.get("learner.run_epoch", 0)
    weighted = int(mask("weighting.dvw_weight").sum())
    paramset = mask("nn.paramset")
    in_epoch = (
        spans.descendant_mask(cols["parent"], cols["name_id"], ids["learner.run_epoch"])
        if "learner.run_epoch" in ids
        else np.zeros_like(paramset)
    )
    totals = {
        "data.ingest_s": total("data.ingest"),
        "data.split_s": total("data.split"),
        "nn.paramset_s": total("nn.paramset"),
        "nn.paramset_builds_per_step": float((paramset & in_epoch).sum()) / steps if steps else 0.0,
        "nn.evaluate_confusion_calls": float(mask("nn.evaluate_confusion").sum()),
        "nn.evaluate_confusion_s": total("nn.evaluate_confusion"),
        "learner.step_us": total("learner.run_epoch") / steps * 1e6 if steps else 0.0,
        "learner.run_epoch_self_s": total("learner.run_epoch", "self"),
        "learner.val_loss_s": total("learner.val_loss"),
        "learner.adopt_s": total("learner.adopt"),
        "learner.epochs_per_commit": it.epochs / it.commits if it.commits else 0.0,
        "weighting.eval_report_s": total("weighting.eval_report"),
        "weighting.dvw_weight_s": total("weighting.dvw_weight"),
        # One fan-out, one EvalReport and one dvw_weight per weighted commit.
        "simulator.fanout_ms_per_commit": (
            (total("simulator.fanout") + total("weighting.eval_report") + total("weighting.dvw_weight"))
            / weighted * 1e3 if weighted else 0.0
        ),
        "simulator.self_s": total("simulator.run", "self"),
        "simulator.test_eval_s": total("simulator.test_eval"),
        "simulator.commits": float(it.commits),
        "simulator.epochs": float(it.epochs),
        "simulator.steps": float(steps),
        "simulator.virtual_s": it.virtual_s,
        "cli.artifacts_s": total("cli.run_single") - total("simulator.run"),
    }
    per_call = {
        "config.parse_ms": samples("config.parse", 1e3),
        "nn.backward_us": samples("nn.backward", 1e6),
        "nn.sgd_step_us": samples("nn.sgd_step", 1e6),
        "weighting.fedasync_mix_us": samples("weighting.fedasync_mix", 1e6),
        "controller.async_commit_us": samples("controller.async_commit", 1e6),
        "controller.fedasync_commit_us": samples("controller.fedasync_commit", 1e6),
        "controller.sync_round_ms": samples("controller.sync_round", 1e3),
        "controller.audit_recompute_us": np.asarray(it.audit_us, dtype=np.float64),
    }
    return totals, per_call


def traced_run(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    golden, cfg_path, input_errors, warm = warm_up(workload, seed, work_dir)
    iterations = [warm]

    start = perf_counter()
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    per_iteration: list[dict[str, float]] = []
    per_call: dict[str, list[np.ndarray]] = {name: [] for name in PER_CALL_UNITS}
    while len(traced) < MIN_TRACED_ITERATIONS or fits(start, plain[-1].wall_s + traced[-1].wall_s, seconds):
        it = run_iteration(cfg_path, work_dir / "out", seed)
        check_golden(it, workload, golden)
        if plain:
            check_replay(it, plain[0])
        else:
            it.errors.extend(input_errors)
        plain.append(it)

        tit = run_iteration(cfg_path, work_dir / "out", seed, tracer=spans.Tracer())
        check_replay(tit, plain[0])
        traced.append(tit)
        if it.errors or tit.errors:
            break
        totals, calls = layer_metrics(tit)
        if per_iteration:
            for name in EXACT_COUNTS:
                if totals[name] != per_iteration[0][name]:
                    tit.errors.append(
                        f"exact count {name}: {totals[name]!r} != {per_iteration[0][name]!r} "
                        "in the first traced iteration"
                    )
        per_iteration.append(totals)
        for name, values in calls.items():
            per_call[name].append(values)
    iterations.extend(plain + traced)
    failed = _report_errors(iterations)

    metrics: dict[str, float] = {}
    for name in PER_CALL_UNITS:
        pooled = np.concatenate(per_call[name]) if per_call[name] else np.zeros(0)
        p50, tail, n = spans.percentile_summary(pooled)
        metrics[name] = p50
        metrics[f"{name}.tail"] = tail
        metrics[f"{name}.n"] = float(n)
    for name in PER_ITERATION_UNITS:
        if name != "trace.overhead_frac":
            metrics[name] = _median([totals[name] for totals in per_iteration])
    # Each traced iteration runs right after its untraced twin, so the
    # per-pair ratio cancels most of the drift in machine speed.
    metrics["trace.overhead_frac"] = _median(
        [(t.wall_s - p.wall_s) / p.wall_s for p, t in zip(plain, traced) if p.wall_s > 0 and t.wall_s > 0]
    )

    write_spans(work_dir.parent / f"trace-{workload}.npz", traced)
    units = per_layer_units()
    _print_table(workload, metrics, units, failed, len(iterations),
                 extra=f"{len(traced)} traced and {len(plain)} untraced iterations")
    return _result(failed, len(iterations), metrics, units)


def write_spans(path: Path, traced: list[Iteration]) -> None:
    """All spans of the traced iterations, one row per span, for later study.

    Every tracer wraps the same targets in the same order, so they share
    their name table.
    """
    tracers = [it.tracer for it in traced if it.tracer is not None and it.tracer.names]
    if not tracers:
        return
    cols = [tr.arrays() for tr in tracers]
    np.savez_compressed(
        path,
        names=np.array(tracers[0].names),
        iteration=np.concatenate([np.full(c["name_id"].size, n, dtype=np.int16) for n, c in enumerate(cols)]),
        **{k: np.concatenate([c[k] for c in cols]) for k in ("name_id", "parent", "start", "end")},
    )


def _result(failed: int, attempted: int, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _print_table(workload, metrics, units, failed, attempted, extra) -> None:
    print(f"{workload}: {extra}", file=sys.stderr)
    for name in units:
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} ratio", file=sys.stderr)
