"""Deterministic discrete-event harness for federation experiments.

A virtual clock advances through a (time, seq) ordered event queue; ties
execute in enqueue order, so replays with the same config and seed are
bit-identical. Learners whose epochs end at the same virtual instant train as
one stacked cohort; the trigger checks then run per learner in event order.
Heterogeneity comes from per-learner speed profiles: an epoch
costs steps/steps_per_second virtual seconds, and a distributed-validation
fan-out costs the slowest evaluator's validation pass (evaluators run in
parallel and keep training undisturbed; the committing learner waits).

Synchronous schemes run as lockstep rounds whose length is the straggler's
training time (plus the evaluation phase for validation-weighted schemes);
each epoch of a round trains the whole federation in cohorts.
"""

from __future__ import annotations

import heapq
import math
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, NamedTuple, Sequence, get_type_hints

from . import config as config_mod
from .controller import (
    CommunityModel,
    FederationController,
    FedAsyncController,
    UpdateRequest,
)
from .data import (
    Dataset,
    alternating_order,
    build_federated_split,
    compute_sizes,
    generate_blobs,
    load_idx,
)
from .learner import (
    CAUSE_FIXED,
    AdaptivePolicy,
    LearnerBank,
    LearnerState,
    adopt_community,
    effective_staleness,
    local_validation_loss,
    run_epoch,
    trigger_cause,
)
from .nn import ModelSpec, ParameterSet, Workspace, check_dataset, model_layout
from .weighting import DVW_SCHEMES, accuracy, dvw_weight, fedasync_mix_factor, fedavg_weight

EVENT_EPOCH_DONE = "epoch_done"
# The end of a DVW fan-out. Handling it only re-queues the commit at the same
# virtual time, behind events already queued for that time; scheduling the
# commit directly would reorder such ties and change the metrics of runs.
EVENT_EVAL_DONE = "eval_done"
EVENT_UPDATE_COMMIT = "update_commit"

class Event(NamedTuple):
    """A queued event; the heap orders events by (time, seq), which is unique."""

    time: float
    seq: int
    learner_id: int
    kind: str


@dataclass(frozen=True)
class MetricsRow:
    virtual_time: float
    version: int
    scheme: str
    test_top1: float
    committing_learner: int
    p_k: float
    staleness: int
    cause: str
    models_exchanged_cum: int
    update_requests_cum: int

    def as_csv_fields(self) -> list[str]:
        values = (getattr(self, column) for column in CSV_COLUMNS)
        return [repr(v) if parse is float else str(v) for parse, v in zip(CSV_PARSERS, values)]


# metrics.csv has one column per MetricsRow field, in field order, read back
# by the field's type; float columns are written with repr.
CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))
CSV_PARSERS = tuple(get_type_hints(MetricsRow)[name] for name in CSV_COLUMNS)


class MetricsLog:
    """Append-only list of per-commit rows with a stable CSV encoding."""

    columns = CSV_COLUMNS

    def __init__(self, rows: Iterable[MetricsRow] = ()) -> None:
        self.rows: list[MetricsRow] = list(rows)

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.virtual_time < self.rows[-1].virtual_time:
            raise ValueError("virtual time must be non-decreasing")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(row.as_csv_fields()))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write(self.to_csv())

    @classmethod
    def from_csv(cls, path) -> "MetricsLog":
        """Read a ``metrics.csv``; a file without rows, or with a short, long or
        non-numeric row, raises ``ValueError`` naming the file (and the line)."""
        with open(path, "r") as f:
            lines = [(number, ln.rstrip("\n")) for number, ln in enumerate(f, 1) if ln.strip()]
        if not lines:
            raise ValueError(f"{path}: empty metrics CSV")
        header = tuple(lines[0][1].split(","))
        if header != cls.columns:
            raise ValueError(f"unexpected CSV header in {path!r}: {header}")
        if len(lines) == 1:
            raise ValueError(f"{path}: no rows after the header")
        rows = []
        for number, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != len(cls.columns):
                raise ValueError(
                    f"{path}, line {number}: expected {len(cls.columns)} fields, got {len(fields)}"
                )
            try:
                rows.append(MetricsRow(*(parse(v) for parse, v in zip(CSV_PARSERS, fields))))
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
        return cls(rows)

    def last_at_or_before_time(self, t: float) -> MetricsRow | None:
        best = None
        for row in self.rows:
            if row.virtual_time <= t:
                best = row
            else:
                break
        return best

    def last_at_or_before_version(self, version: int) -> MetricsRow | None:
        best = None
        for row in self.rows:
            if row.version <= version:
                best = row
        return best


def evaluate_test_accuracy(params: ParameterSet, test: Dataset) -> float:
    """Fraction of argmax-correct predictions on the held-out test set."""
    return accuracy(params, test)


@dataclass
class SimulationResult:
    """What a run leaves that nothing else holds: the log's ``init`` row has the
    initial accuracy, the bank the split and sizes, the config the groups."""

    log: MetricsLog
    bank: LearnerBank
    virtual_duration: float

    @property
    def learners(self) -> list[LearnerState]:
        return self.bank.states


def build_datasets(cfg: config_mod.ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize the training source and the test set (IDX: uint8 rows)."""
    ds = cfg.dataset
    if isinstance(ds, config_mod.BlobsSpec):
        source = generate_blobs(
            ds.input_dim, ds.num_classes, ds.train_samples_per_class, ds.spread, [cfg.seed, 3]
        )
        test = generate_blobs(
            ds.input_dim, ds.num_classes, ds.test_samples_per_class, ds.spread, [cfg.seed, 4]
        )
        return source, test
    source = load_idx(ds.train_images, ds.train_labels, ds.num_classes)
    return source, load_idx(ds.test_images, ds.test_labels, source.num_classes)


def build_federation(cfg: config_mod.ExperimentConfig):
    """Wire data plane, model, controller and learners for one run. Returns
    (model spec, split, sizes, learner bank, controller); learner k is the
    bank's row k."""
    source, test = build_datasets(cfg)
    model_spec = ModelSpec(
        kind=cfg.model.kind,
        input_dim=source.rows.shape[1],
        num_classes=source.num_classes,
        hidden_dim=cfg.model.hidden_dim,
        init_seed=cfg.seed,
    )
    dist = cfg.size_distribution
    total = source.n if dist.total is None else dist.total
    sizes = compute_sizes(dist, cfg.num_learners, total)
    groups = [p.group for p in cfg.speed_profiles]
    order = None if dist.kind == "uniform" else alternating_order(groups)
    assignment = cfg.class_assignment.resolve(cfg.num_learners, source.num_classes)
    split = build_federated_split(
        source, sizes, assignment, cfg.validation_fraction, cfg.seed, test, order
    )
    # Once per run: training, scoring and testing take these sets, and every
    # learner's rows of the pools, as checked.
    layout = model_layout(model_spec)
    for data in (split.train, split.validation, test):
        check_dataset(layout, data)

    if cfg.scheme == "fedasync_poly":
        controller = FedAsyncController(model_spec)
    else:
        controller = FederationController(model_spec)
    community = controller.current_model()
    bank = LearnerBank(layout, split)
    for lid in range(cfg.num_learners):
        bank.add(lid, community, cfg.policy_for(groups[lid]), cfg.seed)
    return model_spec, split, sizes, bank, controller


class _Simulation:
    def __init__(self, cfg: config_mod.ExperimentConfig) -> None:
        self.cfg = cfg
        self.scheme = cfg.scheme
        self.hp = cfg.hyperparameters
        *_, bank, controller = build_federation(cfg)
        self.bank = bank
        # Learner k is bank row k and runs at cfg.speed_profiles[k]; only its epoch
        # duration and the cause of its pending commit are kept here.
        self.epoch_durations = [
            math.ceil(n / self.hp.batch_size) / profile.steps_per_second
            for n, profile in zip(bank.train_n.tolist(), cfg.speed_profiles)
        ]
        self.pending_causes: list[str | None] = [None] * cfg.num_learners
        self.controller = controller
        self.workspace = Workspace(bank.layout)
        self._init_fanout()
        self.log = MetricsLog()
        self.requests = 0
        self.exchanged = 0
        self.clock = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self.is_dvw = self.scheme in DVW_SCHEMES
        # 1 upload + 1 community pull, plus one evaluator ship per other
        # learner when the commit is validation-weighted.
        self.models_per_request = cfg.num_learners + 1 if self.is_dvw else 2
        acc = evaluate_test_accuracy(controller.current_model().params, bank.split.test)
        self.log.append(MetricsRow(0.0, 0, self.scheme, acc, -1, 0.0, 0, "init", 0, 0))

    # -- shared helpers -------------------------------------------------

    def _update_request(self, learner_id: int) -> UpdateRequest:
        """Copy the learner's bank row into a request's read-only model."""
        state = self.bank.states[learner_id]
        return UpdateRequest(
            learner_id=learner_id,
            params=ParameterSet(state.params.copy(), self.bank.layout),
            local_steps=state.S_k_local,
            local_train_size=int(self.bank.train_n[learner_id]),
        )

    def _weight(self, req: UpdateRequest) -> float:
        """A request's contribution value. Under DVW: its model's accuracy on
        every learner's validation slice, its own included, in one pass over
        the split's pooled validation set, which holds the slices. The
        virtual clock still charges each evaluator's own pass
        (``_eval_fanout_duration``). Otherwise: its training-set size."""
        if self.is_dvw:
            return dvw_weight(req.params, self.bank.split.validation)
        return fedavg_weight(req.local_train_size)

    def _init_fanout(self) -> None:
        """Each learner's validation-pass duration is fixed for the run, so a
        fan-out's length is the largest of them, or the runner-up when the
        committing learner holds the largest."""
        durations = [
            v / profile.eval_samples_per_second
            for v, profile in zip(self.bank.val_n.tolist(), self.cfg.speed_profiles)
        ]
        self._fanout_top = max(range(len(durations)), key=durations.__getitem__)
        self._fanout_max = durations[self._fanout_top]
        self._fanout_runner_up = max(
            (d for k, d in enumerate(durations) if k != self._fanout_top), default=0.0
        )

    def _eval_fanout_duration(self, committing: int) -> float:
        """The slowest validation pass among the learners other than
        ``committing``; 0.0 for a federation of one."""
        return self._fanout_runner_up if committing == self._fanout_top else self._fanout_max

    def _record(
        self,
        t: float,
        community: CommunityModel,
        committers: Sequence[int],
        learner_id: int,
        p: float,
        staleness: int,
        cause: str,
    ) -> None:
        """Count the commit's requests and exchanged models, log its row, and
        hand the new community model to every committer."""
        self.requests += len(committers)
        self.exchanged += len(committers) * self.models_per_request
        acc = evaluate_test_accuracy(community.params, self.bank.split.test)
        self.log.append(
            MetricsRow(
                t,
                community.version,
                self.scheme,
                acc,
                learner_id,
                p,
                staleness,
                cause,
                self.exchanged,
                self.requests,
            )
        )
        for k in committers:
            adopt_community(self.bank.states[k], community)

    # -- synchronous rounds ---------------------------------------------

    def run_sync(self) -> None:
        """Lockstep rounds: every learner trains ``uf`` epochs, one
        ``run_epoch`` over the whole federation per epoch, then all commit.
        A learner whose parameters turn non-finite ends the run at the
        earliest such epoch, naming the lowest learner id in it."""
        cfg = self.cfg
        n = cfg.num_learners
        uf = cfg.policy_for("fast").uf  # every learner's policy in a sync scheme
        train_phase = uf * max(self.epoch_durations)
        eval_phase = 0.0
        if self.is_dvw and n > 1:
            eval_phase = max(
                (n - 1) * v / profile.eval_samples_per_second
                for v, profile in zip(self.bank.val_n.tolist(), cfg.speed_profiles)
            )
        round_duration = train_phase + eval_phase
        rows = range(n)
        while True:
            if cfg.max_versions is not None and self.controller.version >= cfg.max_versions:
                break
            t_end = self.clock + round_duration
            if t_end > cfg.time_budget:
                break
            for _ in range(uf):
                run_epoch(self.bank, rows, self.hp, self.workspace)
            requests = [self._update_request(k) for k in rows]
            community = self.controller.handle_sync_round(requests, self._weight)
            self.clock = t_end
            self._record(t_end, community, rows, -1, self.controller.normalizer, 0, CAUSE_FIXED)

    # -- asynchronous event loop ------------------------------------------

    def _schedule(self, t: float, learner_id: int, kind: str) -> None:
        if t < self.clock:
            raise RuntimeError("cannot schedule an event in the past")
        heapq.heappush(self._heap, Event(t, self._seq, learner_id, kind))
        self._seq += 1

    def run_async(self) -> None:
        cfg = self.cfg
        for learner_id, duration in enumerate(self.epoch_durations):
            self._schedule(duration, learner_id, EVENT_EPOCH_DONE)
        while self._heap:
            ev = heapq.heappop(self._heap)
            t = ev.time
            if t > cfg.time_budget:
                break
            self.clock = t
            if ev.kind == EVENT_EPOCH_DONE:
                self._on_epochs_done(self._epoch_run(ev), t)
            elif ev.kind == EVENT_EVAL_DONE:
                self._schedule(t, ev.learner_id, EVENT_UPDATE_COMMIT)
            elif ev.kind == EVENT_UPDATE_COMMIT:
                self._on_commit(ev.learner_id, t)
                if cfg.max_versions is not None and self.controller.version >= cfg.max_versions:
                    break
            else:  # pragma: no cover - exhaustive kinds
                raise RuntimeError(f"unknown event kind {ev.kind!r}")

    def _epoch_run(self, first: Event) -> list[int]:
        """``first`` and the EPOCH_DONE events queued right behind it at the
        same virtual time, popped.

        Training them as one cohort is exact: a learner with a pending
        EPOCH_DONE has no other pending event, so its epoch reads only its own
        state, and everything the run's trigger checks schedule lands after
        the run (later in time, or at the same time with a larger seq).
        """
        run = [first.learner_id]
        heap = self._heap
        while heap and heap[0].time == first.time and heap[0].kind == EVENT_EPOCH_DONE:
            run.append(heapq.heappop(heap).learner_id)
        return run

    def _on_epochs_done(self, rows: list[int], t: float) -> None:
        """Train the cohort one epoch, score the validation loss of the
        members whose adaptive trigger reads it, then check each trigger."""
        run_epoch(self.bank, rows, self.hp, self.workspace)
        states = self.bank.states
        losses: list[float | None] = [None] * len(rows)
        scored = [i for i, k in enumerate(rows) if isinstance(states[k].policy, AdaptivePolicy)]
        if scored:
            values = local_validation_loss(self.bank, [rows[i] for i in scored], self.workspace)
            for i, loss in zip(scored, values):
                losses[i] = loss
        for learner_id, loss in zip(rows, losses):
            self._check_trigger(learner_id, t, loss)

    def _check_trigger(self, learner_id: int, t: float, loss: float | None) -> None:
        state = self.bank.states[learner_id]
        staleness_now = effective_staleness(self.controller.committed_steps(), state)
        cause = trigger_cause(state, loss, staleness_now)
        if cause is None:
            self._schedule(t + self.epoch_durations[learner_id], learner_id, EVENT_EPOCH_DONE)
            return
        self.pending_causes[learner_id] = cause
        if self.is_dvw:
            self._schedule(t + self._eval_fanout_duration(learner_id), learner_id, EVENT_EVAL_DONE)
        else:
            self._schedule(t, learner_id, EVENT_UPDATE_COMMIT)

    def _on_commit(self, learner_id: int, t: float) -> None:
        state = self.bank.states[learner_id]
        cause = self.pending_causes[learner_id]
        self.pending_causes[learner_id] = None
        req = self._update_request(learner_id)
        staleness = effective_staleness(self.controller.committed_steps(), state)
        if self.scheme == "fedasync_poly":
            version_staleness = self.controller.version - state.version_at_fetch
            p = fedasync_mix_factor(version_staleness, self.cfg.fedasync)
            community = self.controller.handle_update(req, p)
        else:
            p = self._weight(req)
            community = self.controller.handle_async_update(req, lambda _r: p)
        self._record(t, community, [learner_id], learner_id, p, staleness, cause)
        self._schedule(t + self.epoch_durations[learner_id], learner_id, EVENT_EPOCH_DONE)

    def run(self) -> SimulationResult:
        if self.scheme.startswith("sync_"):
            self.run_sync()
        else:
            self.run_async()
        return SimulationResult(self.log, self.bank, self.clock)


def run_simulation_detailed(cfg: config_mod.ExperimentConfig) -> SimulationResult:
    """Run one experiment under the deterministic event loop."""
    return _Simulation(cfg).run()


@dataclass(frozen=True)
class StalenessStats:
    label: str
    count: int
    median: float
    mean: float
    stdev: float


def _stats(label: str, values: Sequence[int]) -> StalenessStats:
    ordered = sorted(values)
    median = float(ordered[(len(ordered) - 1) // 2])
    mean = float(statistics.fmean(ordered))
    stdev = float(statistics.pstdev(ordered)) if len(ordered) > 1 else 0.0
    return StalenessStats(label, len(ordered), median, mean, stdev)


def staleness_report(
    log: MetricsLog, groups: Mapping[int, str]
) -> dict[str, list[StalenessStats]]:
    """Per-learner and per-group staleness statistics from the commit log."""
    per_learner: dict[int, list[int]] = {}
    for row in log:
        if row.committing_learner < 0:
            continue
        per_learner.setdefault(row.committing_learner, []).append(row.staleness)
    learner_stats = [
        _stats(f"learner-{lid}", vals) for lid, vals in sorted(per_learner.items())
    ]
    by_group: dict[str, list[int]] = {}
    for lid, vals in per_learner.items():
        by_group.setdefault(groups.get(lid, "unknown"), []).extend(vals)
    group_stats = [_stats(group, vals) for group, vals in sorted(by_group.items())]
    return {"learners": learner_stats, "groups": group_stats}
