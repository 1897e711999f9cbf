"""The served-path benchmark's traced pass, in process and in seconds.

``bench/run.py --trace 1`` exits non-zero when the program stops
looking the way its per-layer pass expects: a patched entry point was
renamed, a served execute no longer calls the generated callable (no
``backend.callable`` span), a reply does not ``json.dumps``, or the
engine answers differently from the callable.  Those failures belong in
the tier-1 run, not in a ten-minute benchmark.  This module runs the
same :class:`layers.Replay` over the head of each workload's seeded
request stream, with ``bench/`` on ``sys.path`` and the package taken
from wherever the tests import it.
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 4
EXECUTE = [w.name for w in workloads.WORKLOADS if not w.prepares]


def _replay(tables, script, compile_sql):
    replay = layers.Replay(tables)
    # A zero budget replays layers.REPLAY_MIN stream requests.
    replay.run(script, 0.0, compile_sql)
    live = {"warm_s": 0.0, "http_1c_p50_ms": 0.0, "shed": 0}
    metrics = layers.per_layer_metrics(live, replay, 1.0, 1.0)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    return replay, metrics


@pytest.mark.parametrize("name", EXECUTE)
def test_execute_workload_replays(name):
    workload = workloads.BY_NAME[name]
    db = workloads.generate_tables(SEED)
    tables = {table: db[table] for table in workload.tables}
    stream = workloads.execute_stream(workload, SEED)
    replay, metrics = _replay(
        tables, layers.execute_script(workload, stream), workload.sql
    )
    assert replay.failed == 0
    assert replay.attempted > 0  # the engine was checked against the callable
    assert len(replay.callable_us_per_row) == layers.REPLAY_MIN
    assert metrics["backend.callable_ms"] > 0


def test_adhoc_prepare_replays():
    stream = workloads.adhoc_stream(SEED, 1)
    replay, metrics = _replay(
        workloads.micro_tables(), layers.adhoc_script(stream[0]), None
    )
    assert replay.failed == 0
    assert len(replay.callable_us_per_row) == len(workloads.ADHOC_EXECUTED)
    assert metrics["optim.nraenv_opt_ms"] > 0
