"""The six served-path workloads: data, queries, request streams, fingerprint.

Everything a run sends to the server is derived here from ``--seed``:
the TPC-H tables (``repro.tpch.datagen.generate``), the 16-value
parameter pool of each execute workload, the per-request parameter
draws, and the cache-busting rewrites of the ``adhoc_prepare``
templates.  The program under test receives only the
generated inputs, never the seed.

Sizes are fixed across seeds on purpose.  ``lineitem`` is cut to exactly
:data:`LINEITEM_ROWS` rows (datagen draws 1–7 lines per order, which
would move every ``lineitem`` latency by ±4 % from seed to seed), so
that a run with another seed is another sample of the same workload
rather than a different workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: `repro.tpch.datagen.TpchScale` arguments.  A quarter of the scale the
#: issue prototyped: the contract's time cap leaves ~10 s per measured
#: window, and the slowest request has to stay near 50 ms for every
#: workload to collect well over 200 samples in it.
SCALE: Dict[str, int] = {
    "suppliers": 20,
    "parts": 200,
    "customers": 80,
    "orders": 220,
    "max_lines_per_order": 7,
    "partsupp_per_part": 4,
}
LINEITEM_ROWS = 640
CLIENTS = 2
WORKERS = 2
POOL_SIZE = 16
#: Parameter draws per execute workload; each connection cycles through
#: its half, so a window never runs out of requests.
STREAM_LENGTH = 4096
#: Every fourth ``adhoc_prepare`` request re-sends the previous text.
REPEAT_EVERY = 4
#: ``adhoc_prepare`` runs a fixed request count, sized from ``--seconds``
#: (one pass = 2 connections x (21 misses + 7 repeats) ≈ 6 s on the
#: reference box).
ADHOC_PASSES_PER_SECOND = 0.2
#: Strides coprime with 21: pass ``t`` visits template ``i * stride``.
PASS_STRIDES = (1, 5, 11, 2, 8, 13, 4, 10)
#: Templates cheap enough on the micro database to execute in setup and
#: check against ``repro.tpch.reference``.
ADHOC_EXECUTED = ("q1", "q6", "q14", "q15", "q22")


#: ``l_quantity`` is uniform on 1..50.  Thresholds near an end of that
#: range keep the selected share high (~90 %), which keeps its binomial
#: wobble from seed to seed near 1 % of the rows selected; at 50 % it
#: is 4 %, and ``group_agg``'s cost follows the rows selected.
SCAN_DOMAIN = (44, 45, 46, 47)


class Workload:
    """One traffic mix: what is sent, over which tables, and why."""

    def __init__(
        self,
        name: str,
        why: str,
        sql: Optional[str] = None,
        tables: Sequence[str] = (),
        param: Optional[str] = None,
        domain: Sequence[int] = (),
    ):
        self.name = name
        self.why = why
        self.sql = sql
        self.tables = tuple(tables)
        self.param = param
        self.domain = tuple(domain)

    @property
    def prepares(self) -> bool:
        """True for the compile-path workload (no prepared statement)."""
        return self.sql is None


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "scan_agg",
        "one-table filter+sum with a 120-byte reply: the generated callable's per-row scan cost",
        "select sum(l_extendedprice * l_discount) as revenue from lineitem "
        "where l_shipdate >= date '1994-01-01' and l_quantity < $q",
        ("lineitem",),
        "q",
        SCAN_DOMAIN,
    ),
    Workload(
        "group_agg",
        "same table and reply size, but the derived group-by encoding: pulls the executor choice the other way",
        "select l_returnflag, sum(l_quantity) as qty, count(*) as n from lineitem "
        "where l_quantity < $q group by l_returnflag",
        ("lineitem",),
        "q",
        SCAN_DOMAIN,
    ),
    Workload(
        "join_agg",
        "two-table equi-join served as a nested-loop product: only a hash join on the served path moves it",
        "select sum(c_acctbal) as bal from customer, nation "
        "where c_nationkey = n_nationkey and n_regionkey = $r",
        ("customer", "nation"),
        "r",
        # Regions that datagen populates with customers at every seed
        # (an empty region would make SUM differ on SQL NULL, not on work).
        (1, 2, 3, 4),
    ),
    Workload(
        "wide_result",
        "~600 rows x 16 columns back per request: result encoding, pipe bytes and leader CPU matter only here",
        "select * from lineitem where l_quantity >= $q",
        ("lineitem",),
        "q",
        (2, 3, 4, 5),
    ),
    Workload(
        "tiny_exec",
        "0.2 ms of execution in a ~1.5 ms request: the fixed per-request cost the other workloads hide",
        "select n_name from nation where n_regionkey = $r",
        ("nation",),
        "r",
        (0, 1, 2, 3, 4),
    ),
    Workload(
        "adhoc_prepare",
        "prepare+close of the 21 TPC-H templates, 3 in 4 a plan-cache miss: parse, optimize, codegen, broadcast",
    ),
)
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


# -- data --------------------------------------------------------------------


def generate_tables(seed: int) -> Dict[str, Any]:
    """The seeded TPC-H database with ``lineitem`` cut to a fixed size."""
    from repro.data.model import Bag
    from repro.tpch.datagen import TpchScale, generate

    db = generate(TpchScale(**SCALE), seed)
    lineitem = list(db["lineitem"])
    if len(lineitem) < LINEITEM_ROWS:
        raise RuntimeError(
            "datagen produced %d lineitem rows, the workload needs %d"
            % (len(lineitem), LINEITEM_ROWS)
        )
    db["lineitem"] = Bag(lineitem[:LINEITEM_ROWS])
    return db


def micro_tables() -> Dict[str, Any]:
    """The micro database ``adhoc_prepare`` serves (datagen's defaults)."""
    from repro.tpch.datagen import MICRO, generate

    return generate(MICRO, seed=7)


def wire_rows(bag: Any) -> List[Dict[str, Any]]:
    """A table as the JSON wire format ``register`` accepts."""
    from repro.data import json_io

    return json_io.to_jsonable(bag)


# -- request streams ---------------------------------------------------------


def param_pool(workload: Workload, seed: int) -> List[int]:
    """The narrow seeded pool a workload's ``$param`` is drawn from."""
    rng = random.Random("%s/pool/%d" % (workload.name, seed))
    return [rng.choice(workload.domain) for _ in range(POOL_SIZE)]


def execute_stream(workload: Workload, seed: int) -> List[Dict[str, int]]:
    """``STREAM_LENGTH`` parameter bindings, drawn from the pool."""
    pool = param_pool(workload, seed)
    rng = random.Random("%s/stream/%d" % (workload.name, seed))
    return [{workload.param: rng.choice(pool)} for _ in range(STREAM_LENGTH)]


_WHERE = re.compile(r"\bwhere\b")


def cache_miss_rewrite(text: str, k: int) -> str:
    """A semantics-preserving rewrite that changes the plan key.

    The first ``where`` becomes ``where <k> = <k> and``; every one of
    the 21 templates has a ``where``.
    """
    rewritten, count = _WHERE.subn("where %d = %d and" % (k, k), text, count=1)
    if count != 1:
        raise ValueError("template has no where clause to rewrite")
    return rewritten


def adhoc_passes(seconds: float) -> int:
    return max(1, int(seconds * ADHOC_PASSES_PER_SECOND))


def adhoc_stream(seed: int, passes: int) -> List[List[Dict[str, Any]]]:
    """Per-connection ``prepare`` requests for ``adhoc_prepare``.

    Every connection walks the 21 templates ``passes`` times in the same
    order, each text made a plan-cache miss of its own by
    :func:`cache_miss_rewrite` with a seeded ``k``, and re-sends its
    previous text after every third request.  Entries carry the
    ``cached`` flag the reply must show.

    The order is fixed and shared on purpose.  Prepares serialize on the
    server's broadcast lock, so a request's latency is its own compile
    plus the one in flight on the other connection; a seeded shuffle, or
    dealing different templates to the two connections, would make the
    multiset of those sums — and with it the median — a property of the
    seed and of which connection happened to start first.  The seed
    still changes every text.
    """
    from repro.tpch.queries import QUERIES, QUERY_NAMES

    rng = random.Random("adhoc/%d" % seed)
    ks = iter(rng.sample(range(1000, 1000000), CLIENTS * passes * len(QUERY_NAMES)))
    streams: List[List[Dict[str, Any]]] = []
    for _ in range(CLIENTS):
        stream: List[Dict[str, Any]] = []
        for turn in range(passes):
            # Each pass walks the list with another stride, so that passes
            # do not repeat the same neighbours (and with them the same sums).
            stride = PASS_STRIDES[turn % len(PASS_STRIDES)]
            for step in range(len(QUERY_NAMES)):
                name = QUERY_NAMES[step * stride % len(QUERY_NAMES)]
                text = cache_miss_rewrite(QUERIES[name], next(ks))
                stream.append({"template": name, "query": text, "cached": False})
                if len(stream) % REPEAT_EVERY == REPEAT_EVERY - 1:
                    stream.append(dict(stream[-1], cached=True))
        streams.append(stream)
    return streams


# -- fingerprint -------------------------------------------------------------


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_sha256(workload: Workload, seed: int, seconds: float) -> str:
    """sha256 over the generated tables and the request stream.

    Covers every table datagen produced (so a datagen change that leaves
    the served tables alone still shows) and exactly what the workload
    will send.  ``seconds`` matters only to ``adhoc_prepare``, whose
    request count is sized from it.
    """
    if workload.prepares:
        tables = micro_tables()
        stream: Any = adhoc_stream(seed, adhoc_passes(seconds))
    else:
        tables = generate_tables(seed)
        stream = {"sql": workload.sql, "params": execute_stream(workload, seed)}
    return _digest(
        {
            "tables": {name: wire_rows(tables[name]) for name in sorted(tables)},
            "stream": stream,
        }
    )
