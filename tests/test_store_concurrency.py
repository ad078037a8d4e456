"""Concurrent-writer stress test for the ResultStore (ISSUE satellite):
N processes hammer overlapping digests across overlapping shards; no
reader may ever observe a torn/partial JSON record, and stats()/gc()
must stay correct afterwards."""

import json
import multiprocessing
import os

from repro.experiments import runner
from repro.results import ResultStore, stats_from_dict, stats_to_dict
from repro.uarch.config import default_machine
from repro.workloads.generators import tiny_loop


def _digests():
    """Digests engineered to collide on shard prefixes (aa/, bb/)."""
    return [f"{shard}{i:062x}" for shard in ("aa", "bb") for i in range(6)]


def _writer(root, schema, stats_payload, digests, rounds, barrier):
    """Child-process body: rewrite every digest ``rounds`` times."""
    store = ResultStore(root, schema=schema)
    stats = stats_from_dict(stats_payload)
    barrier.wait()  # maximise overlap between writers
    for round_no in range(rounds):
        for digest in digests:
            store.save(digest, stats, workload=f"w-{round_no}",
                       machine="loopfrog")


def _reader(root, schema, digests, stop, failures):
    """Child-process body: poll loads; any torn record is a failure."""
    store = ResultStore(root, schema=schema)
    while not stop.is_set():
        for digest in digests:
            path = store._path(digest)
            if not path.exists():
                continue
            try:
                json.loads(path.read_text())
            except ValueError:
                failures.put(f"torn JSON at {path.name}")
                return


def test_concurrent_writers_no_torn_records(tmp_path):
    workload = tiny_loop("store_stress", outer=8, trip=3)
    stats = runner.run_workload(workload, default_machine(), use_cache=False)
    payload = stats_to_dict(stats)
    digests = _digests()
    root = tmp_path / "store"
    store = ResultStore(root)

    ctx = multiprocessing.get_context("fork")
    n_writers = 4
    barrier = ctx.Barrier(n_writers)
    stop = ctx.Event()
    failures = ctx.Queue()
    writers = [
        ctx.Process(target=_writer,
                    args=(root, store.schema, payload, digests, 10, barrier))
        for _ in range(n_writers)
    ]
    reader = ctx.Process(target=_reader,
                         args=(root, store.schema, digests, stop, failures))
    reader.start()
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(120)
        assert proc.exitcode == 0
    stop.set()
    reader.join(30)
    assert failures.empty(), failures.get()

    # Every record readable and bit-identical to the written stats.
    reference = json.dumps(payload, sort_keys=True)
    for digest in digests:
        loaded = store.load(digest)
        assert loaded is not None, f"missing record for {digest}"
        assert json.dumps(stats_to_dict(loaded), sort_keys=True) == reference

    # stats() sees exactly the final records — no extras, no corruption,
    # and no leaked temp files from the atomic-replace dance.
    summary = store.stats()
    assert summary.corrupt == 0
    assert summary.records == len(digests)
    leftovers = [p for shard in root.iterdir() if shard.is_dir()
                 for p in os.listdir(shard) if p.startswith(".tmp-")]
    assert leftovers == []

    # gc keeps current-schema records, then purge removes everything.
    assert store.gc(purge=False) == 0
    assert store.gc(purge=True) == len(digests)
    assert store.stats().records == 0
