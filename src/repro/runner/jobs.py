"""Declarative job specifications for the experiment pipeline.

A :class:`JobSpec` names one unit of work — one pipeline stage applied to
one (benchmark, scale, machine, speculation-config) point — without
executing it.  Its :meth:`~JobSpec.key` is a content hash over every
input that can change the result, plus a code-version salt, so the key
doubles as the address of the result in the on-disk cache
(:mod:`repro.runner.cache`): identical settings hit, any changed knob
misses, and bumping :data:`CODE_VERSION` invalidates everything at once.

Stage semantics are looked up in a registry (:func:`register_stage`), so
tests can inject synthetic stages (flaky, slow) and future pipelines can
add stages without touching the executor.  The built-in stages mirror
``Evaluation``:

========== ================================ ============================
stage      inputs                           produces
========== ================================ ============================
build      benchmark, scale                 ``Program``
trace      build                            ``ValueTrace``
profile    build + trace                    ``ProfileData``
compile    build + profile + machine/config ``ProgramCompilation``
simulate   compile + trace (+ model_icache) ``ProgramSimResult``
========== ================================ ============================

``trace`` interprets the built program exactly once and records the
value stream (:mod:`repro.trace`); ``profile`` and ``simulate`` then
compute from its columns instead of re-interpreting.  Like ``profile``,
the trace key excludes the machine and speculation config, so every
sweep point of a threshold/predictor/machine ablation shares one cached
interpretation.

``build`` exists because operation ids are assigned from a process-local
counter: profiles and compilations reference programs *by op id*, so all
downstream stages must consume the one program object the build stage
produced (shipped by pickle) rather than rebuilding it in whatever
counter state their worker happens to be in.  The build stage resets the
counter first, making the shipped program canonical.

``build`` and ``profile`` deliberately exclude the speculation config
from their keys: threshold and predictor ablations re-use the same
profiling run, which is where most of the wall time goes.

Compilation-shaped stages additionally carry a
:class:`repro.compiler.PipelineConfig`: ``build`` runs its
program-rewriting prefix (classical optimisation, loop unrolling),
``compile`` its codegen passes, and the config's canonical form joins
the job key — so cache entries are addressed by *pipeline
specification*, and e.g. every unroll variant of the region sweeps is
its own durable cache entry.  ``build``/``profile`` keys see only the
program-rewriting prefix (:meth:`PipelineConfig.frontend`), keeping the
profile shared across codegen-only config changes; the all-default
pipeline normalises to ``None`` so standard jobs key exactly as before.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.compiler.config import PipelineConfig, canonical_value as _canonical
from repro.core.speculation import SpeculationConfig
from repro.machine.description import MachineDescription

#: Bump whenever a pipeline stage's semantics change in a way that makes
#: previously cached results wrong.  Part of every job key.
#: 2026.08.7: profile/simulate stages route through the batched
#: struct-of-arrays engine (byte-identical results, but the batch
#: context changes which memo state a worker accumulates) and the
#: ``batch_simulate`` stage joined the registry.
CODE_VERSION = "2026.08.7"

#: The built-in pipeline stages, in dependency order.
PIPELINE_STAGES = (
    "build", "trace", "profile", "compile", "simulate", "batch_simulate"
)


def _normalise_pipeline(
    pipeline: Optional[PipelineConfig], frontend_only: bool = False
) -> Optional[PipelineConfig]:
    """Reduce a pipeline config to its job-key-relevant core.

    ``frontend_only`` keeps just the program-rewriting prefix (what the
    ``build``/``profile`` stages run).  A pipeline equivalent to the
    all-default one normalises to ``None`` so explicit-default callers
    share cache keys with callers that never mention a pipeline.
    """
    if pipeline is None:
        return None
    if frontend_only:
        frontend = pipeline.frontend()
        return frontend if frontend.program_passes else None
    return None if pipeline.is_standard() else pipeline


@dataclass(frozen=True)
class JobSpec:
    """One pipeline stage applied to one parameter point.

    Attributes:
        stage: registered stage name (``profile``/``compile``/``simulate``
            or a test-injected stage).
        benchmark: workload name from :data:`repro.workloads.BENCHMARKS`.
        scale: workload size multiplier.
        machine: target machine, or ``None`` for machine-independent
            stages (profiling).
        spec_config: speculation knobs, or ``None`` for stages upstream
            of the speculation pass.
        pipeline: compiler pipeline configuration, or ``None`` for the
            standard pipeline (``build``/``profile`` specs carry only
            its program-rewriting prefix; see :func:`_normalise_pipeline`).
        params: extra stage parameters as a sorted tuple of
            ``(name, value)`` pairs — e.g. ``(("model_icache", True),)``.
    """

    stage: str
    benchmark: str
    scale: float = 1.0
    machine: Optional[MachineDescription] = None
    spec_config: Optional[SpeculationConfig] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    pipeline: Optional[PipelineConfig] = None

    def key(self) -> str:
        """Content hash addressing this job's result in the disk cache.

        The machine joins the key through its spec ``fingerprint()`` —
        the content hash of its canonical declarative form — so every
        distinct machine axis (width, FU mix, latencies, buffer
        geometry, predictor, ...) keys distinctly, and a machine loaded
        from a spec file keys identically to the equivalent registry
        constant.
        """
        payload = json.dumps(
            {
                "code_version": CODE_VERSION,
                "stage": self.stage,
                "benchmark": self.benchmark,
                "scale": repr(self.scale),
                "machine": (
                    None if self.machine is None else self.machine.fingerprint()
                ),
                "spec_config": _canonical(self.spec_config),
                "params": _canonical(self.params),
                # The canonical form, not the dataclass: it excludes
                # result-neutral knobs such as `verify`.
                "pipeline": (
                    self.pipeline.canonical() if self.pipeline else None
                ),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def job_id(self) -> str:
        """Human-readable identifier, e.g. ``simulate:swim@playdoh-4w``."""
        parts = [f"{self.stage}:{self.benchmark}"]
        if self.machine is not None:
            parts.append(f"@{self.machine.name}")
        flags = [
            name if value is True else f"{name}={value}"
            for name, value in self.params
            if value not in (False, None)
        ]
        if flags:
            parts.append("[" + ",".join(flags) + "]")
        if self.pipeline is not None:
            front = ",".join(p.render() for p in self.pipeline.program_passes)
            parts.append(
                f"+{front}" if front
                else f"+pipeline:{self.pipeline.fingerprint()[:8]}"
            )
        return "".join(parts)

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class Job:
    """A :class:`JobSpec` plus the specs whose results it consumes."""

    spec: JobSpec
    deps: Tuple[JobSpec, ...] = ()

    def key(self) -> str:
        return self.spec.key()

    @property
    def job_id(self) -> str:
        return self.spec.job_id


# -- stage registry ----------------------------------------------------------

#: stage name -> fn(spec, dep_results: Dict[key, Any]) -> result
StageFn = Callable[[JobSpec, Dict[str, Any]], Any]

_STAGES: Dict[str, StageFn] = {}


def register_stage(name: str, fn: StageFn) -> None:
    """Register (or override) the implementation of a stage.

    Worker processes inherit the registry through ``fork``; under a
    ``spawn`` start method injected stages must be registered at import
    time of the module that defines them.
    """
    _STAGES[name] = fn


def stage_function(name: str) -> StageFn:
    try:
        return _STAGES[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_STAGES)}"
        ) from None


def execute_spec(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    """Run one job body.  This is the function worker processes execute."""
    return stage_function(spec.stage)(spec, dep_results)


def dep_result(spec: JobSpec, dep_results: Dict[str, Any], stage: str) -> Any:
    """Fetch the dependency result produced by ``stage`` for ``spec``.

    Dependency results are keyed by content hash; the expected specs are
    re-derived from :func:`default_deps`, which is the same closure the
    graph materialises, so lookup is exact.
    """
    for dep in default_deps(spec):
        if dep.stage == stage and dep.key() in dep_results:
            return dep_results[dep.key()]
    raise RuntimeError(f"{spec.job_id}: missing {stage} dependency result")


def adopt_program(program: Any) -> Any:
    """Make a program numbered elsewhere safe for op-creating passes here.

    A program that arrived by pickle (cache hit, worker hand-off) carries
    op ids from a foreign counter state; the local counter may sit *below*
    its maximum — notably after an in-process ``build`` of a smaller
    benchmark reset it.  Bump the counter past the program's ids so the
    speculation pass and the unroller cannot mint colliding ids.
    """
    from repro.ir.operation import ensure_operation_ids_above

    max_id = max(
        (
            op.op_id
            for function in program
            for block in function
            for op in block.operations
        ),
        default=0,
    )
    ensure_operation_ids_above(max_id)
    return program


def _run_build(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    from repro.ir.operation import reset_operation_ids
    from repro.workloads.suite import load_benchmark

    # Canonical ids: every build of (benchmark, scale, pipeline front
    # end) numbers its operations identically, wherever it runs.
    reset_operation_ids()
    program = load_benchmark(spec.benchmark, scale=spec.scale)
    if spec.pipeline is not None and spec.pipeline.program_passes:
        from repro.compiler import PassManager

        program = PassManager(spec.pipeline).run_program_passes(program)
    return program


def _maybe_trace(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    """The spec's trace dependency result, or ``None`` when the job was
    built without one (profile and simulate then capture their own)."""
    for dep in default_deps(spec):
        if dep.stage == "trace" and dep.key() in dep_results:
            return dep_results[dep.key()]
    return None


def _run_trace(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    from repro.trace.capture import capture_trace

    program = dep_result(spec, dep_results, "build")
    return capture_trace(program)


def _run_profile(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    from repro.profiling.profile_run import profile_program

    program = dep_result(spec, dep_results, "build")
    return profile_program(
        program,
        profile_alu=bool(spec.param("profile_alu", False)),
        trace=_maybe_trace(spec, dep_results),
    )


def _run_compile(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    from repro.compiler import PassManager

    if spec.machine is None:
        raise ValueError(f"{spec.job_id}: compile jobs need a machine")
    # The build dependency already ran the pipeline's program-rewriting
    # prefix; only the codegen passes run here.
    program = adopt_program(dep_result(spec, dep_results, "build"))
    profile = dep_result(spec, dep_results, "profile")
    return PassManager(spec.pipeline).compile(
        program, spec.machine, profile, spec_config=spec.spec_config
    )


def _run_simulate(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    from repro.core.program_sim import simulate_program

    return simulate_program(
        dep_result(spec, dep_results, "compile"),
        model_icache=bool(spec.param("model_icache", False)),
        collect_metrics=bool(spec.param("collect_metrics", False)),
        collect_cycles=bool(spec.param("collect_cycles", False)),
        trace=_maybe_trace(spec, dep_results),
    )


def _run_batch_simulate(spec: JobSpec, dep_results: Dict[str, Any]) -> Any:
    """Simulate one benchmark on B machine points in a single pass.

    The job's dependencies are the B compile jobs (plus the shared
    trace); their results arrive here together, so one worker simulates
    all points off one trace decode through the batched engine instead
    of B workers each decoding it.  Returns ``{machine fingerprint:
    ProgramSimResult}`` — each entry byte-identical to the matching
    scalar ``simulate`` job's result.
    """
    from repro.core.metrics import ProgramCompilation
    from repro.core.program_sim import simulate_program

    compilations = sorted(
        (v for v in dep_results.values() if isinstance(v, ProgramCompilation)),
        key=lambda comp: comp.machine.fingerprint(),
    )
    wanted = spec.param("machines", ())
    if len(compilations) != len(wanted):
        raise RuntimeError(
            f"{spec.job_id}: expected {len(wanted)} compile dependency "
            f"results, got {len(compilations)}"
        )
    collect_metrics = bool(spec.param("collect_metrics", False))
    collect_cycles = bool(spec.param("collect_cycles", False))
    trace = _maybe_trace(spec, dep_results)
    return {
        comp.machine.fingerprint(): simulate_program(
            comp,
            collect_metrics=collect_metrics,
            collect_cycles=collect_cycles,
            trace=trace,
        )
        for comp in compilations
    }


register_stage("build", _run_build)
register_stage("trace", _run_trace)
register_stage("profile", _run_profile)
register_stage("compile", _run_compile)
register_stage("simulate", _run_simulate)
register_stage("batch_simulate", _run_batch_simulate)


# -- spec/job constructors ---------------------------------------------------

def build_spec(
    benchmark: str,
    scale: float = 1.0,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    return JobSpec(
        "build", benchmark, scale=scale,
        pipeline=_normalise_pipeline(pipeline, frontend_only=True),
    )


def trace_spec(
    benchmark: str,
    scale: float = 1.0,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    """One value-trace capture per (benchmark, scale, frontend pipeline).

    Deliberately machine- and config-free, like ``profile``: the
    architectural value stream is invariant across everything downstream
    of the build, which is what lets a whole ablation sweep share it.
    """
    return JobSpec(
        "trace", benchmark, scale=scale,
        pipeline=_normalise_pipeline(pipeline, frontend_only=True),
    )


def profile_spec(
    benchmark: str,
    scale: float = 1.0,
    profile_alu: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    params = (("profile_alu", True),) if profile_alu else ()
    return JobSpec(
        "profile", benchmark, scale=scale, params=params,
        pipeline=_normalise_pipeline(pipeline, frontend_only=True),
    )


def compile_spec(
    benchmark: str,
    machine: MachineDescription,
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    profile_alu: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    config = spec_config or SpeculationConfig()
    params = (("profile_alu", True),) if profile_alu else ()
    return JobSpec(
        "compile", benchmark, scale=scale, machine=machine,
        spec_config=config, params=params,
        pipeline=_normalise_pipeline(pipeline),
    )


def simulate_spec(
    benchmark: str,
    machine: MachineDescription,
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    model_icache: bool = False,
    profile_alu: bool = False,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    config = spec_config or SpeculationConfig()
    # Flags join the params tuple only when set, so enabling a new
    # option never disturbs the cache keys of existing jobs.
    params: Tuple[Tuple[str, Any], ...] = ()
    if collect_cycles:
        params += (("collect_cycles", True),)
    if collect_metrics:
        params += (("collect_metrics", True),)
    if model_icache:
        params += (("model_icache", True),)
    if profile_alu:
        params += (("profile_alu", True),)
    return JobSpec(
        "simulate", benchmark, scale=scale, machine=machine,
        spec_config=config, params=params,
        pipeline=_normalise_pipeline(pipeline),
    )


def batch_simulate_spec(
    benchmark: str,
    machines: Sequence[MachineDescription],
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> JobSpec:
    """One batched simulation of ``benchmark`` over every machine point.

    Keyed by the *set* of machine spec fingerprints (sorted, so machine
    order never splits cache entries): the job's result is the whole
    sweep slice, one :class:`ProgramSimResult` per machine, each
    byte-identical to the corresponding scalar ``simulate`` job.
    """
    config = spec_config or SpeculationConfig()
    fingerprints = tuple(sorted(m.fingerprint() for m in machines))
    if len(set(fingerprints)) != len(fingerprints):
        raise ValueError(
            f"batch_simulate:{benchmark}: duplicate machine fingerprints"
        )
    params: Tuple[Tuple[str, Any], ...] = (("machines", fingerprints),)
    if collect_cycles:
        params += (("collect_cycles", True),)
    if collect_metrics:
        params += (("collect_metrics", True),)
    return JobSpec(
        "batch_simulate", benchmark, scale=scale,
        spec_config=config, params=params,
        pipeline=_normalise_pipeline(pipeline),
    )


def batch_simulate_job(
    benchmark: str,
    machines: Sequence[MachineDescription],
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
    pipeline: Optional[PipelineConfig] = None,
) -> Job:
    """A :func:`batch_simulate_spec` job with its compile + trace deps.

    The compile dependencies carry the actual machine objects (a spec
    fingerprint alone cannot rebuild one), so batch jobs must be
    constructed through this helper rather than :func:`job_for`.
    """
    spec = batch_simulate_spec(
        benchmark, machines, scale,
        spec_config=spec_config,
        collect_metrics=collect_metrics,
        collect_cycles=collect_cycles,
        pipeline=pipeline,
    )
    deps = tuple(
        compile_spec(
            benchmark, machine, scale,
            spec_config=spec_config, pipeline=pipeline,
        )
        for machine in machines
    )
    deps += default_deps(spec)
    return Job(spec, deps=deps)


def default_deps(spec: JobSpec) -> Tuple[JobSpec, ...]:
    """The natural upstream specs of a built-in pipeline stage.

    Used both by the job constructors and by the graph when it has to
    materialise a dependency that was only named, never constructed.
    Injected test stages have no implicit dependencies.
    """
    profile_alu = bool(spec.param("profile_alu", False))
    if spec.stage == "trace":
        return (build_spec(spec.benchmark, spec.scale, spec.pipeline),)
    if spec.stage == "profile":
        return (
            build_spec(spec.benchmark, spec.scale, spec.pipeline),
            trace_spec(spec.benchmark, spec.scale, spec.pipeline),
        )
    if spec.stage == "compile":
        return (
            build_spec(spec.benchmark, spec.scale, spec.pipeline),
            profile_spec(
                spec.benchmark, spec.scale, profile_alu, spec.pipeline
            ),
        )
    if spec.stage == "simulate":
        if spec.machine is None:
            raise ValueError(f"{spec.job_id}: simulate jobs need a machine")
        return (
            compile_spec(
                spec.benchmark, spec.machine, spec.scale,
                spec.spec_config, profile_alu, spec.pipeline,
            ),
            trace_spec(spec.benchmark, spec.scale, spec.pipeline),
        )
    if spec.stage == "batch_simulate":
        # Only the trace dep is derivable from the spec: the compile
        # deps need machine objects, which batch_simulate_job attaches.
        return (trace_spec(spec.benchmark, spec.scale, spec.pipeline),)
    return ()


def job_for(spec: JobSpec) -> Job:
    """Wrap ``spec`` as a :class:`Job` with its natural dependencies."""
    return Job(spec, deps=default_deps(spec))


def build_job(benchmark: str, scale: float = 1.0, **kw: Any) -> Job:
    return job_for(build_spec(benchmark, scale, **kw))


def trace_job(benchmark: str, scale: float = 1.0, **kw: Any) -> Job:
    return job_for(trace_spec(benchmark, scale, **kw))


def profile_job(benchmark: str, scale: float = 1.0, **kw: Any) -> Job:
    return job_for(profile_spec(benchmark, scale, **kw))


def compile_job(
    benchmark: str, machine: MachineDescription, scale: float = 1.0, **kw: Any
) -> Job:
    return job_for(compile_spec(benchmark, machine, scale, **kw))


def simulate_job(
    benchmark: str, machine: MachineDescription, scale: float = 1.0, **kw: Any
) -> Job:
    return job_for(simulate_spec(benchmark, machine, scale, **kw))


def pipeline_jobs(
    benchmarks: Sequence[str],
    machines: Sequence[MachineDescription],
    scale: float = 1.0,
    spec_config: Optional[SpeculationConfig] = None,
    simulate_variants: Sequence[bool] = (False,),
) -> Tuple[Job, ...]:
    """The full profile -> compile -> simulate graph for a sweep.

    ``simulate_variants`` lists the ``model_icache`` settings to simulate
    per (benchmark, machine) point.
    """
    out = []
    for benchmark in benchmarks:
        out.append(profile_job(benchmark, scale))
        for machine in machines:
            out.append(
                compile_job(benchmark, machine, scale, spec_config=spec_config)
            )
            for model_icache in simulate_variants:
                out.append(
                    simulate_job(
                        benchmark,
                        machine,
                        scale,
                        spec_config=spec_config,
                        model_icache=model_icache,
                    )
                )
    return tuple(out)
