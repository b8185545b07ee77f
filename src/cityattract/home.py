"""Home-country inference from located activity records.

A user's home country is the one holding the highest number of their
records over the longest timespan: countries are ranked by event count,
ties by the span between the user's first and last event there, remaining
ties by lexicographically smallest country id.  Users with fewer located
events than ``min_events`` come out as UNDETERMINED.

Records that declare an origin country (e.g. card transactions) do not
need inference; origin_map prefers a user's declared value.

Everything here works on whole columns: the tally groups events by
(user, country) with one sort, and the tie-break is a second sort.  Users
are the codes of the event table, so every per-user result is aligned
with its sorted ``user_ids``.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .events import EventTable, labels_of
from .geo import Assignment

UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True, slots=True)
class HomeRecord:
    user_id: str
    country: str
    event_count: int  # events in the chosen country; total located if undetermined
    timespan_seconds: int


@dataclass(frozen=True, eq=False)
class CountryStats:
    """Per-(user, country) tallies: one entry per pair that has events,
    ordered by user code, then country id.

    ``user`` indexes ``user_ids`` (every user of the tallied events, with
    or without located events); ``country`` indexes ``countries``, which
    is sorted, so code order is id order.  ``first`` and ``last`` are the
    epoch seconds of the pair's earliest and latest event.
    """

    user_ids: tuple[str, ...]
    countries: tuple[str, ...]
    user: np.ndarray
    country: np.ndarray
    count: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _user_position(user_ids: Sequence[str], user_id: str) -> int:
    i = bisect_left(user_ids, user_id)
    if i == len(user_ids) or user_ids[i] != user_id:
        raise KeyError(user_id)
    return i


@dataclass(frozen=True, eq=False)
class Homes(Mapping):
    """Every user's inferred home, read as a mapping user id -> HomeRecord.

    Columns are aligned with the sorted ``user_ids``; ``country`` indexes
    ``countries``, with -1 for UNDETERMINED.
    """

    user_ids: tuple[str, ...]
    countries: tuple[str, ...]
    country: np.ndarray
    event_count: np.ndarray
    timespan_seconds: np.ndarray

    def __getitem__(self, user_id: str) -> HomeRecord:
        i = _user_position(self.user_ids, user_id)
        code = int(self.country[i])
        return HomeRecord(
            user_id,
            self.countries[code] if code >= 0 else UNDETERMINED,
            int(self.event_count[i]),
            int(self.timespan_seconds[i]),
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.user_ids)

    def __len__(self) -> int:
        return len(self.user_ids)


@dataclass(frozen=True, eq=False)
class Origins(Mapping):
    """Every user's resolved origin, read as a mapping user id -> country.

    ``code`` is aligned with the sorted ``user_ids`` and indexes ``names``.
    """

    user_ids: tuple[str, ...]
    names: tuple[str, ...]
    code: np.ndarray

    def __getitem__(self, user_id: str) -> str:
        return self.names[self.code[_user_position(self.user_ids, user_id)]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.user_ids)

    def __len__(self) -> int:
        return len(self.user_ids)

    def foreign(self, target_country: str) -> np.ndarray:
        """Per user: whether the origin is known and not the target country."""
        local = [i for i, name in enumerate(self.names) if name in (target_country, UNDETERMINED)]
        return ~np.isin(self.code, local)


def _group_starts(*keys: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal key tuples in sorted keys."""
    n = keys[0].shape[0]
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def accumulate_stats_seq(events: EventTable, countries: Assignment) -> tuple[CountryStats, int]:
    """Tally per-user per-country counts and time extents.

    ``countries`` is the events' assignment to the country layer.  Returns
    the tally and the number of events that resolved to no country.
    """
    if countries.index.shape[0] != len(events):
        raise ValueError(f"{countries.index.shape[0]} countries for {len(events)} events")
    order = sorted(range(len(countries.regions)), key=countries.regions.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    located = countries.index >= 0
    user = events.user[located]
    country = rank[countries.index[located]]
    seconds = events.seconds[located]
    by_pair = np.lexsort((country, user))
    user, country, seconds = user[by_pair], country[by_pair], seconds[by_pair]
    starts = _group_starts(user, country)
    if starts.shape[0]:
        first = np.minimum.reduceat(seconds, starts)
        last = np.maximum.reduceat(seconds, starts)
    else:
        first = last = seconds
    stats = CountryStats(
        user_ids=events.user_ids,
        countries=tuple(countries.regions[i] for i in order),
        user=user[starts],
        country=country[starts],
        count=np.diff(np.append(starts, user.shape[0])),
        first=first,
        last=last,
    )
    return stats, int(located.shape[0] - user.shape[0])


def infer_all(stats: CountryStats, min_events: int = 1) -> Homes:
    """Homes for every user of the tallied events.

    Users whose located events number fewer than ``min_events`` (users
    without any included) come out UNDETERMINED, with the total located
    count as evidence and no span.
    """
    n = len(stats.user_ids)
    span = stats.last - stats.first
    total = np.bincount(stats.user, weights=stats.count, minlength=n).astype(np.int64)
    ranked = np.lexsort((stats.country, -span, -stats.count, stats.user))
    best = ranked[_group_starts(stats.user[ranked])]
    winners = best[total[stats.user[best]] >= min_events]
    country = np.full(n, -1, dtype=np.int64)
    timespan = np.zeros(n, dtype=np.int64)
    event_count = total
    users = stats.user[winners]
    country[users] = stats.country[winners]
    event_count[users] = stats.count[winners]
    timespan[users] = span[winners]
    return Homes(stats.user_ids, stats.countries, country, event_count, timespan)


def origin_map(events: EventTable, homes: Homes) -> Origins:
    """Resolve every event owner to an origin country.

    Users whose records declare an origin keep the first declared value in
    row order; the rest fall back to their inferred home, or UNDETERMINED
    when the user produced no locatable events at all.
    """
    if homes.user_ids != events.user_ids:
        raise ValueError("homes must cover exactly the users of the events")
    names = sorted({*events.origin_ids, *homes.countries, UNDETERMINED})
    position = {name: i for i, name in enumerate(names)}
    home_code = np.array([position[c] for c in (*homes.countries, UNDETERMINED)], dtype=np.int64)
    declared_code = np.array([position[c] for c in events.origin_ids], dtype=np.int64)
    code = home_code[homes.country]
    declaring = np.flatnonzero(events.origin >= 0)
    users, first = np.unique(events.user[declaring], return_index=True)
    code[users] = declared_code[events.origin[declaring[first]]]
    return Origins(events.user_ids, tuple(names), code)


def homes_to_csv(homes: Homes) -> str:
    """One row per user, sorted by user id."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("user_id", "country", "event_count", "timespan_seconds"))
    writer.writerows(
        zip(
            homes.user_ids,
            labels_of(homes.countries, homes.country, UNDETERMINED),
            homes.event_count.tolist(),
            homes.timespan_seconds.tolist(),
        )
    )
    return buf.getvalue()


def write_homes_csv(homes: Homes, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(homes_to_csv(homes))
