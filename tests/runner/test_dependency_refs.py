"""Job results reference their inputs instead of copying them.

A compile result is written as a reference to its build and profile
entries, and decodes to the runner's own build program and profile.
These tests pin that sharing (serial, pooled, cold and warm), the plain
pickles of every other stage, the miss-and-recompute path of a payload
whose references do not resolve, and the byte-identity of the shared
payloads across ``--jobs`` legs.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import repro.trace.format as trace_format
from repro.evaluation import table2, table4
from repro.evaluation.__main__ import main as eval_main
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.runner import DiskCache, EventLog, Job, JobGraph, Runner
from repro.runner.cache import DependencyRefs, DependencyTable

SCALE = 0.25
SETTINGS = EvaluationSettings(scale=SCALE)

#: Stages whose payloads share nothing with their inputs.
PLAIN_STAGES = ("build", "trace", "profile", "simulate")


@dataclasses.dataclass
class _Shared:
    name: str


def _warm(cache_root: Path, jobs: int) -> Tuple[Runner, Evaluation, str]:
    """A ``table2`` warm through a fresh runner, and its rows as JSON."""
    runner = Runner(jobs=jobs, cache=DiskCache(root=cache_root), events=EventLog())
    evaluation = Evaluation(SETTINGS, runner=runner)
    evaluation.warm(["table2"])
    rows = json.dumps(
        [dataclasses.asdict(row) for row in table2.compute(evaluation)]
    )
    return runner, evaluation, rows


def _compile_jobs(evaluation: Evaluation) -> List[Job]:
    graph = JobGraph(evaluation.required_jobs(["table2"]))
    return [job for job in graph.jobs if job.spec.stage == "compile"]


def _payloads(cache_root: Path) -> Dict[str, Tuple[str, bytes]]:
    """key -> (stage, payload) of every entry in a disk cache."""
    store = DiskCache(root=cache_root).store
    out = {}
    for manifest in sorted(store.glob("*/*.json")):
        meta = json.loads(manifest.read_text(encoding="utf-8"))
        out[meta["key"]] = (meta["stage"], manifest.with_suffix(".pkl").read_bytes())
    return out


class TestSharing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_compile_results_are_the_build_program_and_profile(
        self, tmp_path, jobs
    ):
        for leg in ("cold", "warm"):
            runner, evaluation, _ = _warm(tmp_path / "cache", jobs)
            with runner:
                compiles = _compile_jobs(evaluation)
                assert len(compiles) == 8
                for job in compiles:
                    build, profile = job.deps
                    assert build.stage == "build" and profile.stage == "profile"
                    compilation = runner.result(job)
                    assert compilation.program is runner.result(Job(build)), leg
                    assert compilation.profile is runner.result(Job(profile)), leg
            assert (runner.events.executed == 0) == (leg == "warm")

    def test_one_digest_per_program(self, tmp_path, monkeypatch):
        """Capture hashes each program once; replay reuses that digest."""
        computed = []

        class CountingMemo(dict):
            def __setitem__(self, key, value):
                computed.append(value[1])
                super().__setitem__(key, value)

        monkeypatch.setattr(trace_format, "_DIGESTS", CountingMemo())
        runner = Runner(jobs=1, cache=DiskCache(root=tmp_path / "cache"))
        with runner:
            evaluation = Evaluation(SETTINGS, runner=runner)
            evaluation.warm(["table2", "table4"])
            table2.compute(evaluation)
            table4.compute(evaluation)
        assert len(computed) == 8
        assert len(set(computed)) == 8


class TestPayloads:
    def test_only_compile_payloads_reference_their_inputs(self, tmp_path):
        runner, _, _ = _warm(tmp_path / "cache", jobs=1)
        runner.close()
        payloads = _payloads(tmp_path / "cache")
        stages = sorted({stage for stage, _ in payloads.values()})
        assert stages == ["build", "compile", "profile", "simulate", "trace"]
        for stage, payload in payloads.values():
            if stage in PLAIN_STAGES:
                pickle.loads(payload)
            else:
                with pytest.raises(pickle.UnpicklingError, match="references"):
                    pickle.loads(payload)

    def test_unresolved_references_are_a_miss_and_recomputed(self, tmp_path):
        root = tmp_path / "cache"
        runner, evaluation, cold_rows = _warm(root, jobs=1)
        runner.close()
        cache = DiskCache(root=root)
        compiles = _compile_jobs(evaluation)
        # Point every reference of two compile entries at a key that is
        # none of their inputs (same length, so the pickle stays whole).
        broken = compiles[:2]
        for job in broken:
            build_key = job.deps[0].key()
            pkl, _ = cache._paths(job.key())
            payload = pkl.read_bytes()
            assert build_key.encode("ascii") in payload
            pkl.write_bytes(
                payload.replace(build_key.encode("ascii"), b"f" * len(build_key))
            )

        events = EventLog()
        runner = Runner(jobs=1, cache=DiskCache(root=root), events=events)
        with runner:
            evaluation = Evaluation(SETTINGS, runner=runner)
            evaluation.warm(["table2"])
            rows = json.dumps(
                [dataclasses.asdict(row) for row in table2.compute(evaluation)]
            )
            for job in broken:
                assert runner.result(job).program is runner.result(
                    Job(job.deps[0])
                )
        assert rows == cold_rows
        recomputed = {
            e["key"] for e in events.of_type("job_finish") if not e["cached"]
        }
        assert recomputed == {job.key() for job in broken}
        assert {e["key"] for e in events.of_type("cache_miss")} == recomputed
        for job in broken:
            pkl, _ = cache._paths(job.key())
            assert b"f" * 64 not in pkl.read_bytes()

    def test_a_foreign_reference_evicts_the_entry(self, tmp_path):
        cache = DiskCache(root=tmp_path / "cache")
        shared = _Shared("a dependency result")
        refs = DependencyRefs([DependencyTable("1" * 64, (shared,))])
        with cache.referencing(refs):
            cache.put("ab" * 32, {"input": shared})
            assert cache.get("ab" * 32) == (True, {"input": shared})
            assert cache.get("ab" * 32)[1]["input"] is shared
        foreign = DependencyRefs([DependencyTable("2" * 64, (shared,))])
        with cache.referencing(foreign):
            assert cache.get("ab" * 32) == (False, None)
        assert not cache.has("ab" * 32)

    def test_payloads_are_byte_identical_across_jobs_legs(
        self, tmp_path, capsys
    ):
        outputs = {}
        for jobs in (1, 2):
            argv = [
                "table2", "--scale", str(SCALE), "--json",
                "--jobs", str(jobs), "--cache-dir", str(tmp_path / f"j{jobs}"),
            ]
            assert eval_main(argv) == 0
            outputs[jobs] = capsys.readouterr().out
        assert outputs[1] == outputs[2]
        serial, pooled = _payloads(tmp_path / "j1"), _payloads(tmp_path / "j2")
        assert serial.keys() == pooled.keys()
        differing = {
            serial[key][0]
            for key in serial
            if serial[key][1] != pooled[key][1]
        }
        # The one exception: compile payloads carry op ids minted from a
        # process-global counter, so they differ across legs (they did
        # before payloads referenced their inputs, too).
        assert differing <= {"compile"}
