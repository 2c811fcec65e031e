"""Deterministic discrete-event harness for federation experiments.

A virtual clock advances through a (time, seq) ordered queue of events, each
carrying its handler; ties execute in enqueue order, so replays with the same
config and seed are bit-identical. Learners whose epochs end at the same
virtual instant train as one stacked cohort; the trigger checks then run per
learner in event order, and a trigger that fires queues its learner's commit
with the cause. Heterogeneity comes from per-learner speed profiles: an epoch
costs steps/steps_per_second virtual seconds, and a distributed-validation
fan-out costs the slowest evaluator's validation pass (evaluators run in
parallel and keep training undisturbed; the committing learner waits); both
are fixed per learner for the run (``epoch_durations``, ``fanout_durations``).

Synchronous schemes run as lockstep rounds, one event each on the same queue,
whose length is the straggler's training time (plus the evaluation phase for
validation-weighted schemes); each epoch of a round trains the whole
federation in cohorts.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence, get_type_hints

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
    LearnerBank,
    LearnerState,
    adopt_community,
    effective_staleness,
    local_validation_loss,
    run_epoch,
)
from .nn import ModelSpec, ParameterSet, Workspace, check_dataset, model_layout
from .weighting import DVW_SCHEMES, accuracy, dvw_weight, fedasync_mix_factor, fedavg_weight


class Event(NamedTuple):
    """A queued event, run by ``handle(event)``. The heap orders events by
    (time, seq), which is unique, so ``handle`` and ``cause``, the trigger
    cause a queued commit carries, are never compared."""

    time: float
    seq: int
    learner_id: int
    handle: Callable[[Event], None]
    cause: str | None = None


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
    """Per-commit rows with a stable CSV encoding. ``append``, the only way in, refuses rows that go
    back in time or version or whose counters or accuracy cannot occur; a cutoff is one ``bisect``."""

    columns = CSV_COLUMNS

    def __init__(self) -> None:
        self.rows: list[MetricsRow] = []

    def append(self, row: MetricsRow) -> None:
        last = self.rows[-1] if self.rows else row
        # ``not >=`` also refuses a NaN virtual_time, which no order admits.
        if not row.virtual_time >= last.virtual_time or row.version < last.version:
            raise ValueError("virtual_time or version goes back from the row before, or is NaN")
        # Each update request uploads one model and pulls one; both counters start at 0.
        before = (last.update_requests_cum, last.models_exchanged_cum) if self.rows else (0, 0)
        requests = row.update_requests_cum - before[0]
        if requests < 0 or row.models_exchanged_cum - before[1] < 2 * requests:
            raise ValueError("update_requests_cum goes back, or fewer than 2 models per request")
        if not 0.0 <= row.test_top1 <= 1.0:  # a hit count over the test-set size; refuses NaN too
            raise ValueError(f"test_top1 {row.test_top1!r} is not an accuracy in [0, 1]")
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
        """Read a ``metrics.csv``; a file without rows, or with a malformed or
        out-of-order row, raises ``ValueError`` naming the file (and the line)."""
        with open(path, "r") as f:
            lines = [(number, ln.rstrip("\n")) for number, ln in enumerate(f, 1) if ln.strip()]
        if not lines:
            raise ValueError(f"{path}: empty metrics CSV")
        header = tuple(lines[0][1].split(","))
        if header != cls.columns:
            raise ValueError(f"unexpected CSV header in {path!r}: {header}")
        if len(lines) == 1:
            raise ValueError(f"{path}: no rows after the header")
        log = cls()
        for number, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != len(cls.columns):
                raise ValueError(
                    f"{path}, line {number}: expected {len(cls.columns)} fields, got {len(fields)}"
                )
            try:
                log.append(MetricsRow(*(parse(v) for parse, v in zip(CSV_PARSERS, fields))))
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
        return log

    def last_at_or_before(self, column: str, value: float) -> MetricsRow | None:
        """The last row whose ``column`` is at most ``value``; None if there is none."""
        k = bisect.bisect_right(self.rows, value, key=attrgetter(column))
        return self.rows[k - 1] if k else None


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
        *_, bank, controller = build_federation(cfg)
        self.bank = bank
        # Learner k is bank row k and runs at cfg.speed_profiles[k]. Kept here:
        # the virtual length of its epoch, and of the DVW fan-out its commit
        # waits for, the slowest validation pass among the other learners (the
        # largest pass, or the runner-up for the learner that holds it; 0.0 for
        # a federation of one).
        profiles = cfg.speed_profiles
        self.epoch_durations = [
            math.ceil(n / cfg.hyperparameters.batch_size) / profile.steps_per_second
            for n, profile in zip(bank.train_n.tolist(), profiles)
        ]
        passes = [v / p.eval_samples_per_second for v, p in zip(bank.val_n.tolist(), profiles)]
        top = max(range(len(passes)), key=passes.__getitem__)
        runner_up = max((d for k, d in enumerate(passes) if k != top), default=0.0)
        self.fanout_durations = [runner_up if k == top else passes[top] for k in range(len(passes))]
        self.controller = controller
        self.workspace = Workspace(bank.layout)
        self.log = MetricsLog()
        self.clock = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self.is_dvw = cfg.scheme in DVW_SCHEMES
        # 1 upload + 1 community pull, plus one evaluator ship per other
        # learner when the commit is validation-weighted.
        self.models_per_request = cfg.num_learners + 1 if self.is_dvw else 2
        if cfg.scheme.startswith("sync_"):
            # A round lasts the straggler's uf epochs (every learner has the fixed
            # policy), plus under DVW the slowest evaluation of the others' models.
            self.uf = cfg.policy_for("fast").uf
            eval_phase = 0.0
            if self.is_dvw:
                eval_phase = max(
                    (cfg.num_learners - 1) * v / profile.eval_samples_per_second
                    for v, profile in zip(bank.val_n.tolist(), profiles)
                )
            self.round_duration = self.uf * max(self.epoch_durations) + eval_phase
        self._stopped = False
        acc = evaluate_test_accuracy(controller.current_model().params, bank.split.test)
        self.log.append(MetricsRow(0.0, 0, cfg.scheme, acc, -1, 0.0, 0, "init", 0, 0))

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
        (``fanout_durations``). Otherwise: its training-set size."""
        if self.is_dvw:
            return dvw_weight(req.params, self.bank.split.validation)
        return fedavg_weight(req.local_train_size)

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
        """Log the commit's row, counting on from the last row's totals, hand the
        new community model to every committer, and stop at ``max_versions``."""
        last = self.log.rows[-1]
        acc = evaluate_test_accuracy(community.params, self.bank.split.test)
        self.log.append(
            MetricsRow(
                t,
                community.version,
                self.cfg.scheme,
                acc,
                learner_id,
                p,
                staleness,
                cause,
                last.models_exchanged_cum + len(committers) * self.models_per_request,
                last.update_requests_cum + len(committers),
            )
        )
        for k in committers:
            adopt_community(self.bank.states[k], community)
        self._stopped = community.version >= (self.cfg.max_versions or math.inf)

    # -- the event loop -------------------------------------------------

    def _schedule(self, t: float, learner_id: int, handle: Callable, cause: str | None = None):
        if t < self.clock:
            raise RuntimeError("cannot schedule an event in the past")
        heapq.heappush(self._heap, Event(t, self._seq, learner_id, handle, cause))
        self._seq += 1

    def run(self) -> SimulationResult:
        """Queue the first synchronous round, or every learner's first epoch,
        then run the events in order until the queue empties, the next event
        lies past the time budget, or a commit has reached ``max_versions``."""
        if self.cfg.scheme.startswith("sync_"):
            self._schedule(self.round_duration, -1, self._on_round)
        else:
            for learner_id, duration in enumerate(self.epoch_durations):
                self._schedule(duration, learner_id, self._on_epochs_done)
        while self._heap and not self._stopped:
            ev = heapq.heappop(self._heap)
            if ev.time > self.cfg.time_budget:
                break
            self.clock = ev.time
            ev.handle(ev)
        self._heap.clear()  # its events' handlers would keep this simulation alive
        return SimulationResult(self.log, self.bank, self.clock)

    def _on_round(self, ev: Event) -> None:
        """A lockstep round: every learner trains ``uf`` epochs, one ``run_epoch``
        over the whole federation per epoch, then all commit and the next round
        is queued. A learner whose parameters turn non-finite ends the run at
        the earliest such epoch, naming the lowest learner id in it."""
        rows = range(self.cfg.num_learners)
        for _ in range(self.uf):
            run_epoch(self.bank, rows, self.cfg.hyperparameters, self.workspace)
        requests = [self._update_request(k) for k in rows]
        community = self.controller.handle_sync_round(requests, self._weight)
        self._record(ev.time, community, rows, -1, self.controller.normalizer, 0, CAUSE_FIXED)
        self._schedule(ev.time + self.round_duration, -1, self._on_round)

    def _on_epochs_done(self, first: Event) -> None:
        """Pop the epoch ends queued right behind ``first`` at the same
        virtual time, train the cohort one epoch, score the validation loss of
        the members whose trigger reads it, then check each trigger
        in event order: queue the next epoch, or the commit with its cause
        (under DVW, behind the fan-out).

        Training them as one cohort is exact: a learner with a pending epoch
        end has no other pending event, so its epoch reads only its own
        state, and everything the trigger checks schedule lands after the
        cohort (later in time, or at the same time with a larger seq). No
        commit runs in here, so the committed steps are read once.
        """
        t, heap = first.time, self._heap
        rows = [first.learner_id]
        while heap and heap[0].time == t and heap[0].handle == first.handle:
            rows.append(heapq.heappop(heap).learner_id)
        run_epoch(self.bank, rows, self.cfg.hyperparameters, self.workspace)
        states = self.bank.states
        scored = [k for k in rows if states[k].policy.reads_loss]
        losses = {}
        if scored:
            losses = dict(zip(scored, local_validation_loss(self.bank, scored, self.workspace)))
        committed = self.controller.committed_steps()
        for k in rows:
            state = states[k]
            cause = state.policy.cause(state, losses.get(k), effective_staleness(committed, state))
            if cause is None:
                self._schedule(t + self.epoch_durations[k], k, self._on_epochs_done)
            elif self.is_dvw:
                self._schedule(t + self.fanout_durations[k], k, self._on_eval_done, cause)
            else:
                self._schedule(t, k, self._on_commit, cause)

    def _on_eval_done(self, ev: Event) -> None:
        """The end of a DVW fan-out: queue the commit at the same virtual time,
        behind events already queued for that time. Scheduling the commit
        directly would reorder such ties and change the metrics of runs."""
        self._schedule(ev.time, ev.learner_id, self._on_commit, ev.cause)

    def _on_commit(self, ev: Event) -> None:
        t, learner_id = ev.time, ev.learner_id
        state = self.bank.states[learner_id]
        req = self._update_request(learner_id)
        staleness = effective_staleness(self.controller.committed_steps(), state)
        if self.cfg.scheme == "fedasync_poly":
            version_staleness = self.controller.version - state.version_at_fetch
            p = fedasync_mix_factor(version_staleness, self.cfg.fedasync)
            community = self.controller.handle_update(req, p)
        else:
            p = self._weight(req)
            community = self.controller.handle_async_update(req, lambda _r: p)
        self._record(t, community, [learner_id], learner_id, p, staleness, ev.cause)
        self._schedule(t + self.epoch_durations[learner_id], learner_id, self._on_epochs_done)


def run_simulation_detailed(cfg: config_mod.ExperimentConfig) -> SimulationResult:
    """Run one experiment under the deterministic event loop."""
    return _Simulation(cfg).run()

