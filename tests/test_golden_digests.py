"""Golden digests: frozen store keys for two small workloads.

The persistent result store is content-addressed (docs/results_store.md):
a cache entry's key digests the compiled program, the workload's initial
machine state, every MachineConfig field, and ``ENGINE_SCHEMA_VERSION``.
These tests pin the exact hex values so that *any* unintentional change
to compilation output, workload setup, config defaults, or digest
canonicalisation shows up as a test failure instead of as a silently
cold (or worse, silently stale) result store.

If a failure here is *intentional* — you changed timing semantics, the
compiler's output, or a default config — bump ``ENGINE_SCHEMA_VERSION``
(for timing changes) or simply re-pin the values below, and note the
invalidation in the commit message.  Never re-pin to hide an unexplained
diff: an unexplained digest change means cached results no longer match
what a fresh simulation would produce.
"""

from repro.results.digest import machine_digest, run_digest, workload_digest
from repro.uarch.config import baseline_machine, default_machine
from repro.workloads.suites import suite


def _workload(name):
    for bench in suite("spec2017"):
        for workload, _weight in bench.phases:
            if workload.name == name:
                return workload
    raise AssertionError(f"workload {name} missing from spec2017")


GOLDEN = {
    "imagick_conv": {
        "workload": "3a940ea1a24892df540cb25882f7ea32"
                    "ef76729a70e46d2e0f7bc24caaff7227",
        "run_baseline": "462527654dba0f1b713471ce17d0ced"
                        "1ca7ee8da1a5828df3dba919b84f18d4c",
        "run_loopfrog": "3107ba40d0c68eb77f1f0b11e87c1b7"
                        "4c97d9b3ca48aca1746e4ba35a731bb74",
    },
    "omnetpp_events": {
        "workload": "1da1f2dda1fe071fd1a42d82fc8e47b7"
                    "916fdc4d43fb430a16ba42bd2002f2e7",
        "run_baseline": "0d375367a0f7149e4db0902fb4850ae"
                        "0dea4fee8117dfd5829908a17fdff3bc5",
        "run_loopfrog": "61bef74bf8e68dbf60bff5dccd23be0"
                        "40bd28702c3cb5685ad38eeb7f031b42c",
    },
}

MACHINE_BASELINE = (
    "b5c6fdc8ffac5081cd3990d897a3e873d2f9adc72f658b6f7505c8b310eb442f"
)
MACHINE_LOOPFROG = (
    "d68c02689c22a526b3af9cbb3addeb94791b7b5417f3f78c7e1c18d2dc0e3967"
)


def test_machine_digests_frozen():
    assert machine_digest(baseline_machine()) == MACHINE_BASELINE
    assert machine_digest(default_machine()) == MACHINE_LOOPFROG


def test_workload_digests_frozen():
    for name, golden in GOLDEN.items():
        assert workload_digest(_workload(name)) == golden["workload"], name


def test_run_digests_frozen():
    for name, golden in GOLDEN.items():
        wl = _workload(name)
        assert run_digest(wl, baseline_machine()) == golden["run_baseline"]
        assert run_digest(wl, default_machine()) == golden["run_loopfrog"]


def test_digests_are_memoised_consistently():
    """The memoised second call must return the identical value (the
    store depends on digest stability within a process)."""
    wl = _workload("imagick_conv")
    machine = default_machine()
    assert workload_digest(wl) == workload_digest(wl)
    assert machine_digest(machine) == machine_digest(machine)
    assert run_digest(wl, machine) == run_digest(wl, machine)


def _canonical_via_asdict(obj):
    """The canonical form as first defined: ``dataclasses.asdict`` (deep
    copies included), then the dict, list and enum rules."""
    import dataclasses
    import enum

    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        items = [(_canonical_via_asdict(k), _canonical_via_asdict(v))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: str(kv[0]))
        return {str(k): v for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [_canonical_via_asdict(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical_via_asdict(dataclasses.asdict(obj))
    return obj


def test_canonical_form_walks_fields_like_asdict():
    import json

    from repro.experiments import registry
    from repro.experiments.spec import plan_spec
    from repro.results.digest import _canonical
    from repro.sampling import SamplingConfig

    configs = [SamplingConfig()]
    for spec in registry.specs():
        for cell in plan_spec(spec):
            configs.extend(
                m for m in (cell.machine, cell.baseline) if m is not None
            )
    assert len(configs) > 60
    for config in configs:
        walked, copied = _canonical(config), _canonical_via_asdict(config)
        assert walked == copied
        assert (json.dumps(walked, sort_keys=True, separators=(",", ":"))
                == json.dumps(copied, sort_keys=True, separators=(",", ":")))
