"""Job-key semantics, the disk cache, and the job graph."""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle

import pytest

from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.runner import (
    CycleError,
    DiskCache,
    Job,
    JobGraph,
    JobSpec,
    build_spec,
    compile_spec,
    pipeline_jobs,
    profile_job,
    profile_spec,
    simulate_job,
    simulate_spec,
)
from repro.runner import jobs as jobs_module
from repro.service.wire import pack_job


class TestJobKeys:
    def test_identical_settings_hit_the_same_key(self):
        a = simulate_spec("swim", PLAYDOH_4W, scale=0.5)
        b = simulate_spec("swim", PLAYDOH_4W, scale=0.5)
        assert a == b
        assert a.key() == b.key()

    def test_key_is_stable_not_process_salted(self):
        # sha256 of canonical content, so the key must equal a
        # recomputation from an equal-but-distinct spec object; Python's
        # per-process hash randomisation must not leak in.
        spec = compile_spec("li", PLAYDOH_4W, scale=1.0)
        clone = compile_spec("li", PLAYDOH_4W, scale=1.0)
        assert spec.key() == clone.key()
        assert len(spec.key()) == 64
        int(spec.key(), 16)  # hex digest

    def test_threshold_change_misses_compile_but_not_profile(self):
        base = SpeculationConfig()
        tuned = dataclasses.replace(base, threshold=0.9)
        assert (
            compile_spec("li", PLAYDOH_4W, spec_config=base).key()
            != compile_spec("li", PLAYDOH_4W, spec_config=tuned).key()
        )
        # Profiles are config-independent: threshold sweeps share them.
        assert profile_spec("li").key() == profile_spec("li").key()
        assert "spec_config" not in [n for n, _ in profile_spec("li").params]

    @pytest.mark.parametrize(
        "variant",
        [
            simulate_spec("li", PLAYDOH_4W, scale=0.5),
            simulate_spec("li", PLAYDOH_8W, scale=1.0),
            simulate_spec("li", PLAYDOH_4W, scale=1.0, model_icache=True),
            simulate_spec("swim", PLAYDOH_4W, scale=1.0),
            compile_spec("li", PLAYDOH_4W, scale=1.0),
        ],
    )
    def test_any_changed_knob_misses(self, variant):
        reference = simulate_spec("li", PLAYDOH_4W, scale=1.0)
        assert variant.key() != reference.key()

    def test_code_version_salts_every_key(self, monkeypatch):
        spec = profile_spec("compress")
        before = spec.key()
        monkeypatch.setattr(jobs_module, "CODE_VERSION", "test-bump")
        assert spec.key() != before

    def test_job_id_is_human_readable(self):
        spec = simulate_spec("swim", PLAYDOH_4W, model_icache=True)
        assert spec.job_id == "simulate:swim@playdoh-4w[model_icache]"
        assert profile_spec("li").job_id == "profile:li"


class TestKeyMemo:
    def test_second_key_call_does_not_re_encode(self, monkeypatch):
        calls = []
        content_key = JobSpec._content_key

        def counting(self):
            calls.append(self.stage)
            return content_key(self)

        monkeypatch.setattr(JobSpec, "_content_key", counting)
        spec = simulate_spec("li", PLAYDOH_4W, scale=0.5)
        first = spec.key()
        assert spec.key() == first
        assert Job(spec).key() == first
        assert calls == ["simulate"]

    def test_code_version_change_re_keys(self, monkeypatch):
        spec = simulate_spec("li", PLAYDOH_4W, scale=0.5)
        before = spec.key()
        monkeypatch.setattr(jobs_module, "CODE_VERSION", "test-bump")
        bumped = spec.key()
        assert bumped != before
        assert bumped == simulate_spec("li", PLAYDOH_4W, scale=0.5).key()
        monkeypatch.undo()
        assert spec.key() == before

    def test_memo_stays_out_of_pickles_repr_eq_and_wire(self):
        spec = simulate_spec("li", PLAYDOH_4W, scale=0.5)
        fresh = Job(spec, deps=jobs_module.default_deps(spec))
        keyed = simulate_job("li", PLAYDOH_4W, scale=0.5)
        fresh_pickle = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        fresh_repr = repr(fresh)
        keyed.key()
        for dep in keyed.deps:
            dep.key()
        jobs_module._dep_keys(keyed.spec)
        assert "_memos" in vars(keyed.spec)
        assert "_memos" not in vars(fresh.spec)
        assert (
            pickle.dumps(keyed, protocol=pickle.HIGHEST_PROTOCOL) == fresh_pickle
        )
        assert repr(keyed) == fresh_repr
        assert keyed == fresh
        # Machine-free specs hash, and travel on the wire as they are.
        unkeyed_spec = profile_spec("li", scale=0.5)
        unkeyed = Job(unkeyed_spec, deps=jobs_module.default_deps(unkeyed_spec))
        expected_blob = base64.b64encode(
            pickle.dumps(unkeyed, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        expected_hash = hash(unkeyed)
        wired = profile_job("li", scale=0.5)
        wired.key()
        assert hash(wired) == expected_hash
        assert pack_job(wired)["blob"] == expected_blob
        assert pack_job(keyed) == pack_job(fresh)


class TestJobGraph:
    def test_simulate_job_pulls_its_whole_ancestry(self):
        graph = JobGraph([simulate_job("li", PLAYDOH_4W, scale=0.5)])
        stages = sorted(job.spec.stage for job in graph.jobs)
        assert stages == ["build", "compile", "profile", "simulate", "trace"]
        waves = graph.waves()
        order = [sorted(j.spec.stage for j in wave) for wave in waves]
        assert order == [
            ["build"], ["trace"], ["profile"], ["compile"], ["simulate"]
        ]

    def test_graph_deduplicates_by_content(self):
        jobs = pipeline_jobs(
            ["li", "swim"], [PLAYDOH_4W, PLAYDOH_8W], scale=0.5
        )
        graph = JobGraph(jobs)
        # 2 builds + 2 traces + 2 profiles + 4 compiles + 4 simulates:
        # the trace job is machine-free, so both machines (and all four
        # simulates) share one per benchmark.
        assert len(graph) == 14
        graph.add(simulate_job("li", PLAYDOH_4W, scale=0.5))
        assert len(graph) == 14

    def test_every_wave_depends_only_on_earlier_waves(self):
        graph = JobGraph(pipeline_jobs(["li"], [PLAYDOH_4W], scale=0.5))
        seen = set()
        for wave in graph.waves():
            for job in wave:
                assert all(dep.key() in seen for dep in job.deps)
            seen.update(job.key() for job in wave)

    def test_cycles_are_reported(self):
        a = JobSpec("flaky-a", "x")
        b = JobSpec("flaky-b", "x")
        graph = JobGraph()
        graph.add(Job(a, deps=(b,)))
        graph.add(Job(b, deps=(a,)))
        with pytest.raises(CycleError):
            graph.waves()


class TestDiskCache:
    def test_round_trip_and_manifest(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        cache.put("ab" * 32, {"answer": 42}, manifest={"stage": "simulate"})
        hit, value = cache.get("ab" * 32)
        assert hit and value == {"answer": 42}
        sidecars = list(cache.store.glob("*/*.json"))
        assert len(sidecars) == 1
        manifest = json.loads(sidecars[0].read_text())
        assert manifest["stage"] == "simulate"
        assert manifest["key"] == "ab" * 32
        assert manifest["size_bytes"] > 0

    def test_miss_on_unknown_key(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        hit, value = cache.get("cd" * 32)
        assert not hit and value is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        cache.put("ef" * 32, [1, 2, 3])
        pkl, _ = cache._paths("ef" * 32)
        pkl.write_bytes(b"not a pickle")
        hit, _ = cache.get("ef" * 32)
        assert not hit
        assert not pkl.exists()

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=False)
        cache.put("12" * 32, "value")
        assert cache.get("12" * 32) == (False, None)
        assert not cache.store.exists()

    def test_stats_and_clear(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        cache.put("11" * 32, "a", manifest={"stage": "profile"})
        cache.put("22" * 32, "b", manifest={"stage": "simulate"})
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.by_stage == {"profile": 1, "simulate": 1}
        assert stats.total_bytes > 0
        assert "2" in stats.render()
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestOperationIdAdoption:
    """A cached program's op ids must survive in-process stage interleaving.

    ``build`` resets the global op-id counter; if a *small* benchmark
    builds in-process and a *large* benchmark's compile is then served
    its program from the cache, the counter sits below the program's max
    id and the speculation pass would mint colliding LDPRED/check ids.
    ``adopt_program`` in the compile stage prevents exactly that.
    """

    def test_ensure_operation_ids_above_bumps_the_counter(self):
        from repro.ir.operation import (
            Opcode,
            Operation,
            Reg,
            ensure_operation_ids_above,
            reset_operation_ids,
        )

        reset_operation_ids()
        first = Operation(opcode=Opcode.HALT)
        assert first.op_id == 1
        ensure_operation_ids_above(100)
        assert Operation(opcode=Opcode.HALT).op_id == 101
        # Already past the floor: must not move backwards.
        ensure_operation_ids_above(50)
        assert Operation(opcode=Opcode.HALT).op_id > 101

    def test_compile_of_cached_program_after_smaller_build(self, tmp_path):
        from repro.machine import PLAYDOH_8W
        from repro.runner import (
            DiskCache,
            Runner,
            build_job,
            compile_job,
            profile_job,
        )

        scale = 0.15
        big, small = "li", "hydro2d"  # most / fewest static operations
        cache_root = tmp_path / "cache"
        with Runner(jobs=1, cache=DiskCache(root=cache_root)) as warmup:
            warmup.run_job(profile_job(big, scale=scale))

        with Runner(jobs=1, cache=DiskCache(root=cache_root)) as runner:
            # In-process build of the small benchmark resets the op-id
            # counter to just past its (few) operations...
            runner.run_job(build_job(small, scale=scale))
            # ...and the big benchmark's compile must still be safe even
            # though its program arrives from the cache with higher ids.
            compilation = runner.run_job(
                compile_job(big, PLAYDOH_8W, scale=scale)
            )
        program_ids = {
            op.op_id
            for function in compilation.program
            for block in function
            for op in block.operations
        }
        minted = set()
        for label in compilation.speculated_labels:
            spec_block = compilation.block(label).spec_schedule.spec
            minted.update(spec_block.ldpred_ids)
            minted.update(spec_block.check_of.values())
        assert minted, f"{big} speculated nothing at scale {scale}"
        # The LDPRED/check ops were created *after* the cached program was
        # adopted, so their ids must not collide with any program op id.
        assert minted.isdisjoint(program_ids)
