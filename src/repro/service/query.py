"""Ad-hoc filtered reads over a result store: ``repro-caem query``.

Key filters (experiment / digest / seed / protocol) push down into the
database indexes when the store is a :class:`~repro.service.DbResultStore`;
metric predicates (``--where delivery_rate>0.9``) and ``--agg``
reductions run in Python on the decoded rows, in insertion order, so a
database and its ``migrate``d JSONL copy print the same bytes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields as dc_fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..api.result import RunResult
from ..errors import ExperimentError

__all__ = [
    "Predicate",
    "parse_predicate",
    "query_runs",
    "aggregate_runs",
    "DEFAULT_COLUMNS",
    "DEFAULT_AGG_METRICS",
    "GROUP_ALIASES",
]

#: What ``repro-caem query`` prints when no --columns are given.
DEFAULT_COLUMNS = (
    "experiment",
    "protocol",
    "load_pps",
    "seed",
    "n_nodes",
    "horizon_s",
    "delivery_rate",
    "energy_per_packet_j",
    "lifetime_s",
    "config_digest",
)

#: What ``--agg`` reduces when no --columns are given.
DEFAULT_AGG_METRICS = (
    "delivery_rate",
    "throughput_bps",
    "mean_delay_s",
    "energy_per_packet_j",
    "total_consumed_j",
)

#: CLI shorthand for group keys: ``--group-by protocol,load``.
GROUP_ALIASES = {"load": "load_pps", "nodes": "n_nodes"}

#: Group keys: the scalar columns that say which cell a row belongs to
#: (the key columns of the database's runs table), never a metric.
_GROUP_COLUMNS = (
    "experiment",
    "protocol",
    "load_pps",
    "seed",
    "horizon_s",
    "n_nodes",
    "config_digest",
)

_AGG_FUNCS: Dict[str, Callable[[List[float]], float]] = {
    "mean": lambda vs: sum(vs) / len(vs),
    "min": min,
    "max": max,
    "sum": sum,
}

#: Two-char operators first so ``>=`` never parses as ``>`` + ``=0.9``.
_OPS: Sequence = (
    ("<=", operator.le),
    (">=", operator.ge),
    ("==", operator.eq),
    ("!=", operator.ne),
    ("<", operator.lt),
    (">", operator.gt),
    ("=", operator.eq),
)

_RESULT_FIELDS = {f.name for f in dc_fields(RunResult)}


@dataclass(frozen=True)
class Predicate:
    """One ``field OP value`` filter over :class:`RunResult` attributes."""

    field: str
    op_text: str
    op: Callable[[Any, Any], bool]
    value: Any

    def matches(self, run: RunResult) -> bool:
        actual = getattr(run, self.field)
        if actual is None:
            # None metrics (e.g. lifetime on a fixed-window run) match
            # nothing except an explicit equality test against None.
            return self.op is operator.eq and self.value is None
        try:
            return bool(self.op(actual, self.value))
        except TypeError:
            raise ExperimentError(
                f"predicate {self} cannot compare the stored "
                f"{type(actual).__name__} value {actual!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.field}{self.op_text}{self.value!r}"


def parse_predicate(text: str) -> Predicate:
    """Parse ``"delivery_rate>0.9"`` / ``"protocol=scheme1"`` forms."""
    for op_text, op in _OPS:
        if op_text in text:
            field, _, raw = text.partition(op_text)
            field = field.strip()
            raw = raw.strip()
            if not field or not raw:
                break
            if field not in _RESULT_FIELDS:
                raise ExperimentError(
                    f"unknown RunResult field {field!r} in predicate "
                    f"{text!r}; known fields: "
                    f"{', '.join(sorted(_RESULT_FIELDS))}"
                )
            value: Any
            if raw == "None":
                value = None
            else:
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            return Predicate(field=field, op_text=op_text, op=op, value=value)
    raise ExperimentError(
        f"malformed predicate {text!r}: expected FIELD OP VALUE with OP "
        f"one of {', '.join(op for op, _ in _OPS)} "
        f"(e.g. delivery_rate>0.9)"
    )


def query_runs(
    store,
    experiment: Optional[str] = None,
    config_digest: Optional[str] = None,
    seed: Optional[int] = None,
    protocol: Optional[str] = None,
    where: Sequence[Predicate] = (),
    limit: Optional[int] = None,
) -> List[RunResult]:
    """Filtered rows from any store backend, in insertion order.

    The key filters use the database indexes when available; ``where``
    predicates and ``limit`` always apply post-decode so the row set is
    identical across backends.
    """
    if hasattr(store, "query"):
        rows = store.query(
            experiment=experiment,
            config_digest=config_digest,
            seed=seed,
            protocol=protocol,
        )
    else:
        rows = [
            run for run in store.load()
            if (experiment is None or run.experiment == experiment)
            and (config_digest is None or run.config_digest == config_digest)
            and (seed is None or run.seed == seed)
            and (protocol is None or run.protocol == protocol)
        ]
    out: List[RunResult] = []
    for run in rows:
        if all(p.matches(run) for p in where):
            out.append(run)
            if limit is not None and len(out) >= limit:
                break
    return out


def resolve_group_key(key: str) -> str:
    """Expand CLI shorthand and validate one ``--group-by`` key."""
    key = GROUP_ALIASES.get(key, key)
    if key not in _GROUP_COLUMNS:
        raise ExperimentError(
            f"cannot group by {key!r}; group keys: "
            f"{', '.join(_GROUP_COLUMNS)} "
            f"(aliases: {', '.join(f'{a}={b}' for a, b in GROUP_ALIASES.items())})"
        )
    return key


def aggregate_runs(
    store,
    group_by: Sequence[str],
    agg: str = "mean",
    metrics: Optional[Sequence[str]] = None,
    experiment: Optional[str] = None,
    config_digest: Optional[str] = None,
    seed: Optional[int] = None,
    protocol: Optional[str] = None,
    where: Sequence[Predicate] = (),
) -> List[dict]:
    """Grouped reduction over a result store: ``query --agg``.

    Returns one dict per group, ordered by group key: the group-key
    values, ``n`` (rows in the group), and one reduced value per metric
    (``None`` when every row's metric is None — e.g. lifetime on runs
    nothing died in; None metrics are skipped, not zero-filled).

    Every store reduces the same way: the rows :func:`query_runs`
    returns, in insertion order, through one Python reducer.  Integer
    fields stay integers, and a ``sum`` adds in insertion order.
    """
    if agg not in _AGG_FUNCS:
        raise ExperimentError(
            f"unknown aggregate {agg!r} (know {', '.join(_AGG_FUNCS)})"
        )
    group_by = [resolve_group_key(k) for k in group_by]
    if metrics is None:
        metrics = DEFAULT_AGG_METRICS
    for field in metrics:
        if field not in _RESULT_FIELDS:
            raise ExperimentError(
                f"unknown RunResult field {field!r}; known fields: "
                f"{', '.join(sorted(_RESULT_FIELDS))}"
            )
    runs = query_runs(
        store,
        experiment=experiment,
        config_digest=config_digest,
        seed=seed,
        protocol=protocol,
        where=where,
    )
    groups: Dict[tuple, List[RunResult]] = {}
    for run in runs:
        key = tuple(getattr(run, k) for k in group_by)
        groups.setdefault(key, []).append(run)
    reduce = _AGG_FUNCS[agg]
    out: List[dict] = []
    # A None key (e.g. an unstamped experiment) sorts first, then keys
    # sort by value: the group order ``query --agg`` has always printed.
    for key in sorted(groups, key=lambda k: tuple((v is not None, v) for v in k)):
        rows = groups[key]
        record = dict(zip(group_by, key))
        record["n"] = len(rows)
        for field in metrics:
            values = [getattr(r, field) for r in rows if getattr(r, field) is not None]
            record[field] = reduce(values) if values else None
        out.append(record)
    return out
