"""Home-country inference from located activity records.

A user's home country is the one holding the highest number of their
records over the longest timespan: countries are ranked by event count,
ties by the span between the user's first and last event there, remaining
ties by lexicographically smallest country id.  Users with fewer located
events than ``min_events`` come out as UNDETERMINED.

Records that declare an origin country (e.g. card transactions) do not
need inference; origin_map prefers a user's declared value.

Everything here works on whole columns: the tally groups events by
(user, country) with one in-place sort of packed int64 keys, and the
tie-break is a few reductions over each user's run of pairs.  Users are
the codes of the event table, so every per-user result is aligned with
its sorted ``user_ids``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .events import CHUNK_ROWS, EventTable
from .geo import Assignment
from .output import coded_column, csv_blocks, decimal_rows

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

    ``infer_all`` relies on that order: each user's pairs are one run,
    ascending by country code.  The columns are read-only.
    """

    user_ids: Sequence[str]
    countries: tuple[str, ...]
    user: np.ndarray
    country: np.ndarray
    count: np.ndarray
    first: np.ndarray
    last: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.user, self.country, self.count, self.first, self.last):
            column.setflags(write=False)


class _ByUser(Mapping):
    """A mapping keyed by the sorted ``user_ids``; any other key raises KeyError."""

    def _position(self, user_id: str) -> int:
        i = bisect_left(self.user_ids, user_id) if isinstance(user_id, str) else len(self.user_ids)
        if i == len(self.user_ids) or self.user_ids[i] != user_id:
            raise KeyError(user_id)
        return i

    def __iter__(self) -> Iterator[str]:
        return iter(self.user_ids)

    def __len__(self) -> int:
        return len(self.user_ids)


@dataclass(frozen=True, eq=False)
class Homes(_ByUser):
    """Every user's inferred home, read as a mapping user id -> HomeRecord.

    Columns are aligned with the sorted ``user_ids`` and read-only;
    ``country`` indexes ``countries``, with -1 for UNDETERMINED.
    """

    user_ids: Sequence[str]
    countries: tuple[str, ...]
    country: np.ndarray
    event_count: np.ndarray
    timespan_seconds: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.country, self.event_count, self.timespan_seconds):
            column.setflags(write=False)

    def __getitem__(self, user_id: str) -> HomeRecord:
        i = self._position(user_id)
        code = int(self.country[i])
        return HomeRecord(
            user_id,
            self.countries[code] if code >= 0 else UNDETERMINED,
            int(self.event_count[i]),
            int(self.timespan_seconds[i]),
        )


@dataclass(frozen=True, eq=False)
class Origins(_ByUser):
    """Every user's resolved origin, read as a mapping user id -> country.

    ``code`` is aligned with the sorted ``user_ids``, indexes ``names``
    and is read-only.
    """

    user_ids: Sequence[str]
    names: tuple[str, ...]
    code: np.ndarray

    def __post_init__(self) -> None:
        self.code.setflags(write=False)

    def __getitem__(self, user_id: str) -> str:
        return self.names[self.code[self._position(user_id)]]

    def foreign(self, target_country: str) -> np.ndarray:
        """Per user: whether the origin is known and not the target country."""
        local = [i for i, name in enumerate(self.names) if name in (target_country, UNDETERMINED)]
        return ~np.isin(self.code, local)


def _group_starts(key: np.ndarray, shift: int = 0) -> np.ndarray:
    """Start positions of the runs of equal ``key >> shift`` in a sorted
    non-negative key, compared a slice at a time: no whole-key temporary."""
    change = np.ones(key.shape[0], dtype=bool)
    for start in range(1, key.shape[0], CHUNK_ROWS):
        run = key[start - 1 : start + CHUNK_ROWS]
        np.greater_equal(run[1:] ^ run[:-1], 1 << shift, out=change[start : start + CHUNK_ROWS])
    return np.flatnonzero(change)


def accumulate_stats_seq(events: EventTable, countries: Assignment) -> tuple[CountryStats, int]:
    """Tally per-user per-country counts and time extents.

    ``countries`` is the events' assignment to the country layer.  Returns
    the tally and the number of events that resolved to no country.

    Each event gets one int64 key: its pair number (user × countries +
    country rank) above its seconds since the table's earliest second.
    One in-place sort then groups the events by pair, with each group's
    first and last second at its ends.  When the keys would not fit in 63
    bits, the pair numbers are argsorted and the seconds reduced instead.
    """
    if countries.index.shape[0] != len(events):
        raise ValueError(f"{countries.index.shape[0]} countries for {len(events)} events")
    order = sorted(range(len(countries.regions)), key=countries.regions.__getitem__)
    n_countries = max(len(order), 1)
    n_pairs = len(events.user_ids) * n_countries
    rank = np.zeros(len(order) + 1, dtype=np.int32)  # the last slot serves index -1
    rank[order] = np.arange(len(order))
    # each event's pair number; events in no country get n_pairs, after
    # every pair
    key = events.user.astype(np.int64)
    key *= n_countries
    key += rank[countries.index]
    key[countries.index < 0] = n_pairs
    located = int(np.count_nonzero(countries.index >= 0))
    seconds = events.seconds
    low, high = (int(seconds.min()), int(seconds.max())) if len(events) else (0, 0)
    shift = (high - low).bit_length()
    if (n_pairs + 1) << shift > 1 << 63:
        pairs, count, first, last = _argsort_tally(key, seconds, located)
    else:
        key <<= shift
        # the key is pair << shift plus seconds - low, under 2**63; a partial
        # sum past it (low < 0) wraps in int64 and comes back with the seconds
        key -= low
        key += seconds
        key.sort()
        key = key[:located]
        starts = _group_starts(key, shift)
        pairs = key[starts] >> shift
        count = np.diff(np.append(starts, located))
        key &= (1 << shift) - 1
        key += low
        first, last = key[starts], key[starts + count - 1]
    dtype = np.int32 if n_pairs < 2**31 else np.int64
    user, country = np.divmod(pairs.astype(dtype), n_countries)
    stats = CountryStats(
        user_ids=events.user_ids,
        countries=tuple(countries.regions[i] for i in order),
        user=user,
        country=country,
        count=count,
        first=first,
        last=last,
    )
    return stats, len(events) - located


def _argsort_tally(pair: np.ndarray, seconds: np.ndarray, located: int) -> tuple[np.ndarray, ...]:
    """The pair number, event count and first and last second of each
    pair that has events, in pair order; ``located`` events have a pair
    number below the no-country one."""
    by_pair = np.argsort(pair)[:located]
    pair = pair[by_pair]
    seconds = seconds[by_pair]
    del by_pair
    starts = _group_starts(pair)
    if starts.shape[0]:
        first = np.minimum.reduceat(seconds, starts)
        last = np.maximum.reduceat(seconds, starts)
    else:
        first = last = seconds
    return pair[starts], np.diff(np.append(starts, located)), first, last


def infer_all(stats: CountryStats, min_events: int = 1) -> Homes:
    """Homes for every user of the tallied events.

    Users whose located events number fewer than ``min_events`` (users
    without any included) come out UNDETERMINED, with the total located
    count as evidence and no span.

    Each user's pairs are contiguous and ordered by country code, so the
    tie-break is three reductions per user: the top count, then the top
    span among the pairs with that count, then the first pair left, which
    has the smallest code.
    """
    n = len(stats.user_ids)
    starts = _group_starts(stats.user)
    size = np.diff(np.append(starts, stats.user.shape[0]))
    total = np.zeros(n, dtype=np.int64)
    total[stats.user[starts]] = np.add.reduceat(stats.count, starts)
    top = stats.count == np.repeat(np.maximum.reduceat(stats.count, starts), size)
    span = stats.last - stats.first
    span[~top] = -1  # below every span
    best = np.flatnonzero(span == np.repeat(np.maximum.reduceat(span, starts), size))
    best = best[_group_starts(stats.user[best])]
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

    Users whose records declare an origin keep the code they declare most
    often, the smallest code among equally frequent ones, so the order of
    the rows does not matter; the rest fall back to their inferred home, or
    UNDETERMINED when the user produced no locatable events at all.
    """
    if homes.user_ids != events.user_ids:
        raise ValueError("homes must cover exactly the users of the events")
    names = sorted({*events.origin_ids, *homes.countries, UNDETERMINED})
    position = {name: i for i, name in enumerate(names)}
    home_code = np.array([position[c] for c in (*homes.countries, UNDETERMINED)], dtype=np.int64)
    declared_code = np.array([position[c] for c in events.origin_ids], dtype=np.int64)
    code = home_code[homes.country]
    declaring = np.flatnonzero(events.origin >= 0)
    n = len(events.origin_ids)
    pairs, tally = np.unique(events.user[declaring].astype(np.int64) * n + events.origin[declaring], return_counts=True)
    user, origin = np.divmod(pairs, n)
    best = np.lexsort((origin, -tally, user))
    best = best[_group_starts(user[best])]
    code[user[best]] = declared_code[origin[best]]
    return Origins(events.user_ids, tuple(names), code)


def homes_csv_blocks(homes: Homes) -> Iterator[bytes]:
    """One row per user, sorted by user id, in row blocks."""
    return csv_blocks(
        ("user_id", "country", "event_count", "timespan_seconds"),
        len(homes),
        (
            coded_column(homes.user_ids),
            coded_column(homes.countries, homes.country, UNDETERMINED),
            lambda start, stop: decimal_rows(homes.event_count[start:stop]),
            lambda start, stop: decimal_rows(homes.timespan_seconds[start:stop]),
        ),
    )

