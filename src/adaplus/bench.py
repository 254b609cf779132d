"""Deterministic experiment runner: seeded multi-replica trainings with step-decay schedules.

A run is described by a flat ``key = value`` config file (see ``_read_config``
for the keys), executed identically for every seed in the config, and
recorded as per-step log rows plus a summary.  Everything except wall time is
a pure function of the config: identical configs produce byte-identical CSV
output.

A config's canonical text, which its hash and its record's ids are made of,
is written key by key by the writer that the key's converter picks: the same
converter ``_read_config`` reads the key with, not the value's own type.  So
a config built in code has the text and hash of the parsed one.
"""

import functools
import hashlib
import inspect
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, NonFiniteValue, as_float, as_int, positive
from .kernels import KERNEL_IDS, KERNEL_STEPS, HyperParams, OptimizerState, ParamVector
from .problems import PROBLEMS, GradientSource, NoiseSpec, Problem


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ConfigError(f"expected true or false, got {text!r}")
    return lowered == "true"


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok.strip()) for tok in text.split(","))


_REQUIRED = inspect.Parameter.empty
_CONVERTERS = {bool: _parse_bool, float: _parse_float, tuple[int, ...]: _parse_int_list}


@functools.cache
def _parameters(cls) -> tuple:
    """``(name, converter, default)`` of each parameter of ``cls``, in order.

    A ``bool`` or ``tuple[int, ...]`` parameter reads the text ``_format``
    writes, and a ``float`` one rejects NaN and infinities; any other
    annotation is its own converter.  A required parameter's default is
    ``_REQUIRED``.
    """
    return tuple(
        (p.name, _CONVERTERS.get(p.annotation, p.annotation), p.default)
        for p in inspect.signature(cls).parameters.values()
    )


def _format(key: str, conv, value) -> str:
    """``value``'s canonical text, by the writer that ``conv``, the reader of ``key``, picks.

    The value's own type picks nothing, so a float key writes an int or a
    numpy float as the float it reads back.  A float or a ``bool`` in an
    integer key (``errors.as_int``), a value that is no tuple or list in an
    integer-list key, and NaN, infinity, an int too large for a float or a
    value that is no real number in a float key (``errors.as_float``), have
    no text the reader reads back, so they raise ``ValueError`` naming ``key``.
    """
    if conv is _parse_int_list:
        # an iterator would be spent by this text, leaving nothing to hold
        if not isinstance(value, (tuple, list)):
            raise ConfigError(f"{key} must be a tuple or list of integers, got {value!r:.80}")
        return ",".join(_format(key, int, v) for v in value)
    if conv is int:
        return str(as_int(key, value))
    if conv is _parse_bool:
        return "true" if value else "false"
    if conv is _parse_float:
        return repr(as_float(key, value))
    return str(value)


_THETA0_MODES = ("seeded", "zeros")


@dataclass(frozen=True)
class RunConfig:
    """One run.  Its fields and those of the types it holds are the config keys;
    ``problem_params`` holds the ``problem.*`` ones.  Epoch ``e`` steps at ``rate(e)``."""

    problem: str
    problem_params: tuple[tuple[str, float | int], ...]
    optimizer: str
    hp: HyperParams
    epochs: int
    steps_per_epoch: int
    seeds: tuple[int, ...]
    lr: float = 1e-3
    milestones: tuple[int, ...] = ()
    decay_factor: float = 0.1
    log_every: int = 1
    noise: NoiseSpec = NoiseSpec()
    theta0: str = "seeded"

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; expected one of {tuple(PROBLEMS)}")
        keys = tuple(key for key, _ in self.problem_params)
        expected = tuple(key for key, _, _ in _parameters(PROBLEMS[self.problem]))
        if keys != expected:
            raise ConfigError(f"problem {self.problem} takes the parameters {expected}, got {keys}")
        if self.optimizer not in KERNEL_IDS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; expected one of {KERNEL_IDS}")
        # every config has a canonical text: its writers refuse a float or a
        # bool in an integer key, and NaN, infinity or an int too large for a
        # float in a float key, so the checks below see integers and floats
        self.canonical_items()
        # the schedule is held as parse_config reads it from that text
        object.__setattr__(self, "milestones", tuple(map(int, self.milestones)))
        for field in ("lr", "decay_factor"):
            object.__setattr__(self, field, as_float(field, getattr(self, field), "be positive and finite", positive))
        if any(m <= 0 for m in self.milestones):
            raise ConfigError("milestones must be positive epoch indices")
        if any(b >= a for a, b in zip(self.milestones[1:], self.milestones)):
            raise ConfigError("milestones must be strictly increasing")
        for field in ("epochs", "steps_per_epoch", "log_every"):
            as_int(field, getattr(self, field), "be >= 1", positive)
        # the rate is monotone in the number of milestones passed, so if the
        # last epoch's is positive and finite, so is every epoch's
        last_rate = self.rate(self.epochs - 1)
        if not (math.isfinite(last_rate) and last_rate > 0):
            raise ConfigError(
                f"lr = {self.lr!r} with decay_factor = {self.decay_factor!r} gives the rate "
                f"{last_rate!r} at epoch {self.epochs - 1}; it must be positive and finite"
            )
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        # a set, held in ascending order as the milestones are
        object.__setattr__(self, "seeds", tuple(sorted(map(int, self.seeds))))
        # numpy's generators take no negative seed
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.theta0 not in _THETA0_MODES:
            raise ConfigError(f"theta0 must be one of {_THETA0_MODES}, got {self.theta0!r}")

    def rate(self, epoch: int) -> float:
        """The rate of ``epoch``: ``lr * decay_factor ** (#milestones <= epoch)``."""
        passed = sum(1 for m in self.milestones if m <= epoch)
        return self.lr * self.decay_factor**passed

    def canonical_items(self) -> list[tuple[str, str]]:
        """Every key with its value's canonical text, defaults included, sorted by key.

        A key's converter, the one ``_read_config`` reads it with, picks the
        writer of its text (``_format``), so a config built in code has the
        text of the config ``parse_config`` reads from it.
        """
        convs = (conv for _, conv, _ in _parameters(PROBLEMS[self.problem]))
        items = [(f"problem.{name}", conv, value) for (name, value), conv in zip(self.problem_params, convs)]
        for field, conv, _ in _parameters(RunConfig):
            value = getattr(self, field)
            if field in _NESTED:
                items += [(key, c, getattr(value, name)) for key, name, c, _ in _NESTED[field]]
            elif field != "problem_params":
                items.append((field, conv, value))
        return sorted((key, _format(key, conv, value)) for key, conv, value in items)

    def config_hash(self) -> str:
        text = "\n".join(map("=".join, self.canonical_items()))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def problem_id(self) -> str:
        """The problem with its ``problem.*`` canonical items: ``quadratic(condition_number=1.0,dim=10)``."""
        items = [(k.removeprefix("problem."), v) for k, v in self.canonical_items() if k.startswith("problem.")]
        return f"{self.problem}({','.join(map('='.join, items))})"

    def record_ids(self) -> dict[str, str]:
        """The ids a run record of this config carries, by ``RunRecord`` field."""
        return {"config_hash": self.config_hash(), "problem_id": self.problem_id(), "optimizer_id": self.optimizer}


# The fields of ``RunConfig`` that hold a type of their own, with the prefix
# of its keys; ``NoiseSpec.kind`` is the one key spelled otherwise.
_PREFIXES = {"hp": "", "noise": "noise."}
_SPELLED = {"noise.kind": "noise"}

# ``(key, parameter, converter, default)`` of each parameter of each such type
_NESTED = {
    field: tuple(
        (_SPELLED.get(_PREFIXES[field] + name, _PREFIXES[field] + name), name, conv, default)
        for name, conv, default in _parameters(cls)
    )
    for field, cls, _ in _parameters(RunConfig)
    if field in _PREFIXES
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat ``key = value`` run-config format.

    Blank lines and ``#`` comments are ignored, and a key may appear once.
    The pairs are read by ``_read_config``, as a JSON record's config is.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return _read_config(raw)


def _read_config(raw: dict[str, str]) -> RunConfig:
    """The ``RunConfig`` of ``{key: value text}``, the one reader of config values.

    The keys are the fields of ``RunConfig`` and of the types it holds, with
    their converters and defaults, as the README's key table lists them;
    ``problem.*`` are the parameters of the problem's constructor in
    ``problems.PROBLEMS``.  Unknown keys are rejected.  ``raw`` is consumed.
    """

    def take(key, conv, default):
        if key in raw:
            value = raw.pop(key)
            try:
                return conv(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    values = {}
    for field, conv, default in _parameters(RunConfig):
        if field == "problem_params":
            problem = values["problem"]
            if problem not in PROBLEMS:
                raise ConfigError(f"unknown problem {problem!r}; expected one of {tuple(PROBLEMS)}")
            values[field] = tuple(
                (name, take(f"problem.{name}", c, d)) for name, c, d in _parameters(PROBLEMS[problem])
            )
        elif field in _NESTED:
            try:
                values[field] = conv(**{name: take(key, c, d) for key, name, c, d in _NESTED[field]})
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            values[field] = take(field, conv, default)
    config = RunConfig(**values)
    if raw:
        raise ConfigError(f"unknown config keys: {', '.join(map(repr, sorted(raw)))}")
    return config


def load_config(path) -> RunConfig:
    """Read and parse a run-config file; a file that is not UTF-8 text raises ``ConfigError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config(text)


def config_to_text(config: RunConfig) -> str:
    """Canonical flat-file rendering; ``parse_config`` round-trips it."""
    return "".join(f"{k} = {v}\n" for k, v in config.canonical_items())


def build_problem(config: RunConfig) -> Problem:
    """The config's problem; a parameter value its constructor rejects raises ``ConfigError``."""
    try:
        return PROBLEMS[config.problem](**dict(config.problem_params))
    except ValueError as exc:
        raise ConfigError(f"problem {config.problem}: {exc}") from exc


# The record format: a CSV line and a JSON row list ``LogRow``'s fields in order;
# a JSON record is an object of ``RunRecord``'s fields, its summary one of ``RunSummary``'s.
@dataclass(frozen=True)
class LogRow:
    seed: int
    epoch: int
    step: int
    lr: float
    loss: float
    grad_norm: float
    param_norm: float


@dataclass(frozen=True)
class RunSummary:
    """What a run's rows do not give: its wall time and abort state.  Its losses are the rows' (``seed_losses``)."""

    wall_time_s: float
    aborted: bool = False
    abort_reason: str = ""

    def __post_init__(self):
        # a record is aborted exactly when it says why, as run writes it
        if self.aborted != bool(self.abort_reason):
            raise ConfigError(
                f"summary field 'aborted' is {self.aborted!r}, but 'abort_reason' is {self.abort_reason!r:.80}"
            )


@dataclass(frozen=True)
class RunRecord:
    """One run's rows and summary, with the config that made them; its ids are the config's."""

    config_hash: str
    problem_id: str
    optimizer_id: str
    config: RunConfig
    rows: tuple[LogRow, ...]
    summary: RunSummary

    def __post_init__(self):
        for field, want in self.config.record_ids().items():
            if getattr(self, field) != want:
                raise ConfigError(f"field {field!r} is {getattr(self, field)!r:.80}, its config gives {want!r}")


def seed_losses(rows) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """``(seeds, finals, bests)``: each seed's final and best loss, in one pass over
    ``rows``, seeds in the order of their first row."""
    finals: dict[int, float] = {}
    bests: dict[int, float] = {}
    for row in rows:
        finals[row.seed] = row.loss
        bests[row.seed] = min(bests.get(row.seed, np.inf), row.loss)
    return tuple(finals), np.array(list(finals.values())), np.array(list(bests.values()))


def _run_replica(config: RunConfig, problem: Problem, seed: int):
    # no full-size array is kept past its last use: at large dims each one
    # is a share of the run's peak memory
    hp = config.hp
    rng = np.random.default_rng(seed)
    # ParamVector copies the start point, which is freed once it is copied
    params = ParamVector(rng.standard_normal(problem.dim) if config.theta0 == "seeded" else np.zeros(problem.dim))
    # the kernels update this array in place, so it is read once
    theta = params.values
    state = OptimizerState(problem.dim)
    source = GradientSource(problem, config.noise, replica_seed=seed)
    step_fn = KERNEL_STEPS[config.optimizer]

    rows = []
    total = config.epochs * config.steps_per_epoch
    global_step = 0
    # divergence shows up as non-finite values and is handled by aborting;
    # numpy's overflow warnings on that path are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr_t = config.rate(epoch)
            for _ in range(config.steps_per_epoch):
                global_step += 1
                try:
                    # unnamed, the gradient is freed when the step returns,
                    # before the next one is made
                    step_fn(state, params, source.gradient(theta), hp, lr_t)
                except NonFiniteValue as exc:
                    return rows, f"seed {seed}: {exc}"
                if global_step % config.log_every == 0 or global_step == total:
                    loss, full_grad = problem.evaluate(theta)
                    grad_norm = float(np.linalg.norm(full_grad))
                    del full_grad
                    row = LogRow(seed, epoch, global_step, lr_t, loss, grad_norm, float(np.linalg.norm(theta)))
                    # a norm squares the elements, so it can overflow where they and the loss do not
                    for name in ("loss", "grad_norm", "param_norm"):
                        if not math.isfinite(getattr(row, name)):
                            return rows, f"seed {seed}: non-finite {name} at step {global_step}"
                    rows.append(row)
    return rows, None


def run(config: RunConfig) -> RunRecord:
    """Execute every seed replica, one after another in seed order, and assemble the record.

    A non-finite parameter, or a non-finite loss or norm in a row to be logged, aborts its replica
    and flags the partial record.  A problem parameter the problem rejects raises ``ConfigError``.
    """
    started = time.perf_counter()
    problem = build_problem(config)
    rows: list[LogRow] = []
    abort_reasons = []
    for seed in config.seeds:
        replica_rows, reason = _run_replica(config, problem, seed)
        rows.extend(replica_rows)
        if reason is not None:
            abort_reasons.append(reason)
    return RunRecord(
        **config.record_ids(),
        config=config,
        rows=tuple(rows),
        summary=RunSummary(
            wall_time_s=time.perf_counter() - started,
            aborted=bool(abort_reasons),
            abort_reason="; ".join(abort_reasons),
        ),
    )


_ROW_FIELDS = fields(LogRow)
CSV_HEADER = ",".join(f.name for f in _ROW_FIELDS)
_row_values = operator.attrgetter(*(f.name for f in _ROW_FIELDS))
# int columns as they are, float columns to 17 significant digits, which read back exactly
_CSV_LINE = ",".join("%s" if f.type is int else "%.17g" for f in _ROW_FIELDS)

_ROWS = tuple[LogRow, ...]
# the JSON form of each field type of ``RunRecord`` that has one; json writes a tuple as a list
_TO_JSON = {_ROWS: lambda rows: list(map(_row_values, rows)), RunSummary: asdict}
_TO_JSON[RunConfig] = lambda config: dict(config.canonical_items())


def record_to_csv(record: RunRecord) -> str:
    """CSV rendering: a header of ``LogRow``'s fields plus one line per log row."""
    if record.summary.aborted:
        raise ValueError("aborted record: emit as json, which carries the abort flag")
    return "\n".join([CSV_HEADER, *(_CSV_LINE % _row_values(r) for r in record.rows)]) + "\n"


def record_to_json(record: RunRecord) -> str:
    """JSON rendering: an object of ``RunRecord``'s fields, the config (its canonical
    key/value text) and the summary as objects, each row as a list."""
    doc = {f.name: _TO_JSON.get(f.type, lambda v: v)(getattr(record, f.name)) for f in fields(RunRecord)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(record: RunRecord, format: str, path) -> None:
    """Write the record to ``path`` as ``csv`` or ``json``."""
    if format == "csv":
        payload = record_to_csv(record)
    elif format == "json":
        payload = record_to_json(record)
    else:
        raise ValueError(f"unknown format {format!r}; expected csv or json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


# the JSON types each scalar annotation accepts: a float may be written as an int
_JSON_TYPES = {str: str, int: int, float: (int, float), bool: bool}
# what each other part of a record must be in JSON, for error messages
_FORMS = dict.fromkeys((RunConfig, RunRecord, RunSummary), "an object")
_FORMS |= {_ROWS: "a list", LogRow: f"a list of {len(_ROW_FIELDS)} values"}


def _read(value, annotation, name: str):
    """``value``, loaded from JSON, read back as the ``annotation`` that ``record_to_json``
    wrote it from; ``name`` is its place in the record (``rows[3]``, ``summary.aborted``)."""
    if annotation in _JSON_TYPES:
        # JSON's true and false load as bool, a subclass of int
        if isinstance(value, bool) == (annotation is bool) and isinstance(value, _JSON_TYPES[annotation]):
            try:
                return annotation(value)
            except OverflowError:  # an int too large for a float
                pass
    elif annotation is LogRow:
        if isinstance(value, list) and len(value) == len(_ROW_FIELDS):
            return LogRow(*(_read(v, f.type, name) for v, f in zip(value, _ROW_FIELDS)))
    elif annotation == _ROWS:
        if isinstance(value, list):
            return tuple(_read(row, LogRow, f"{name}[{i}]") for i, row in enumerate(value))
    elif isinstance(value, dict) and annotation is RunConfig:
        # the values go to the reader as they are: no flat-file syntax applies in them
        raw = {key: _read(v, str, f"{name}.{key}") for key, v in value.items()}
        try:
            return _read_config(raw)
        except ConfigError as exc:
            raise ConfigError(f"field {name!r}: {exc}") from None
    elif isinstance(value, dict):  # a RunRecord or a RunSummary
        prefix = f"{name}." if annotation is RunSummary else ""
        odd = sorted({f.name for f in fields(annotation)} ^ set(value))
        if odd:
            raise ConfigError(f"field {prefix + odd[0]!r} is {'unknown' if odd[0] in value else 'missing'}")
        return annotation(**{f.name: _read(value[f.name], f.type, prefix + f.name) for f in fields(annotation)})
    raise ConfigError(f"field {name!r} must be {_FORMS.get(annotation, annotation.__name__)}, got {value!r:.80}")


def _unique_keys(pairs) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a key given twice raises ``ConfigError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_record(path) -> RunRecord:
    """Read back a JSON record emitted by :func:`emit`.

    The record must have exactly ``RunRecord``'s fields, its summary exactly
    ``RunSummary``'s, each row ``LogRow``'s, and every value the type of its
    field; no object may give a key twice.  Its config's values must be
    strings, which go as they are to ``_read_config``, the reader of
    ``parse_config``'s pairs, so no flat-file syntax applies in them; its ids
    must be that config's.  Anything else, text that is not UTF-8 or not JSON
    included, raises ``ConfigError`` naming the file; so does JSON nested too
    deep for the decoder, which raises ``RecursionError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read(json.load(fh, object_pairs_hook=_unique_keys), RunRecord, "record")
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class CompareRow:
    label: str
    final_mean: float
    final_std: float
    best_mean: float
    best_std: float


@dataclass(frozen=True)
class ComparisonTable:
    problem_id: str
    rows: tuple[CompareRow, ...]

    def best(self, column: str) -> CompareRow:
        """The first row with the lowest ``column``, ``final_mean`` or ``best_mean``."""
        return min(self.rows, key=operator.attrgetter(column))

    def render(self) -> str:
        """The table, with a ``*`` on the one row of lowest mean in each loss column."""
        best_final, best_best = self.best("final_mean"), self.best("best_mean")
        width = max([14, *(len(row.label) for row in self.rows)])
        lines = [
            f"problem: {self.problem_id}",
            f"{'optimizer':<{width}} {'final_loss (mean +/- std)':<34} {'best_loss (mean +/- std)':<34}",
        ]
        for row in self.rows:
            fmark = "*" if row is best_final else " "
            bmark = "*" if row is best_best else " "
            final = f"{fmark} {row.final_mean:.6e} +/- {row.final_std:.3e}"
            best = f"{bmark} {row.best_mean:.6e} +/- {row.best_std:.3e}"
            lines.append(f"{row.label:<{width}} {final:<34} {best:<34}")
        return "\n".join(lines) + "\n"


def compare(records) -> ComparisonTable:
    """Aggregate records over seeds into one table row each; lowest means get marked.

    All records must describe the same problem over the same seeds, the
    same step budget and the same log cadence, and none may be aborted: a
    partial record's losses are not comparable with a finished one's.  Each
    record's rows must cover exactly the seeds its config names, and every
    row's loss must be finite.  A row is labelled by its optimizer, and by
    its config hash's prefix as well when another record shares the
    optimizer.
    """
    records = list(records)
    if not records:
        raise ValueError("compare needs at least one record")
    problem_ids = {r.problem_id for r in records}
    if len(problem_ids) != 1:
        raise ConfigError(f"records describe different problems: {sorted(problem_ids)}")
    aborted = [r.optimizer_id for r in records if r.summary.aborted]
    if aborted:
        raise ConfigError(f"aborted records cannot be compared: {', '.join(aborted)}")
    for record in records:
        name = f"record {record.optimizer_id} ({record.config_hash[:12]})"
        # each seed's losses are averaged, so a seed without rows, or rows of
        # a seed the config does not name, would skew the table
        row_seeds, seeds = sorted({row.seed for row in record.rows}), list(record.config.seeds)
        if row_seeds != seeds:
            raise ConfigError(f"{name}: rows cover seeds {row_seeds}, config names {seeds}")
        # run never writes such a row: it aborts the replica instead
        bad = next((row for row in record.rows if not math.isfinite(row.loss)), None)
        if bad is not None:
            raise ConfigError(f"{name}: the loss of seed {bad.seed} at step {bad.step} is {bad.loss!r}, not finite")
    seed_sets = {record.config.seeds for record in records}
    budgets = {(record.config.epochs, record.config.steps_per_epoch) for record in records}
    cadences = {record.config.log_every for record in records}
    if len(seed_sets) != 1:
        raise ConfigError(f"records use different seed sets: {sorted(map(list, seed_sets))}")
    if len(budgets) != 1:
        raise ConfigError(f"records use different step budgets (epochs, steps_per_epoch): {sorted(budgets)}")
    # a best loss is the lowest over logged rows, so it depends on the cadence
    if len(cadences) != 1:
        raise ConfigError(f"records log at different cadences (log_every): {sorted(cadences)}")

    optimizers = [record.optimizer_id for record in records]
    rows = []
    for record in records:
        _, finals, bests = seed_losses(record.rows)
        label = record.optimizer_id
        if optimizers.count(label) > 1:
            label += f" ({record.config_hash[:12]})"
        rows.append(
            CompareRow(
                label=label,
                final_mean=float(finals.mean()),
                final_std=float(finals.std()),
                best_mean=float(bests.mean()),
                best_std=float(bests.std()),
            )
        )
    return ComparisonTable(problem_id=records[0].problem_id, rows=tuple(rows))
