"""Shared machinery for the evaluation experiments.

:class:`Evaluation` caches profiles, compilations and dynamic simulation
results per (benchmark, machine) so the table/figure generators can share
work — profiling is the expensive step and every experiment needs it.

When constructed with a :class:`repro.runner.Runner`, every pipeline
stage is delegated to the runner as a declarative job: stage results are
then additionally memoised on disk (surviving across processes and
threshold/scale sweeps) and :meth:`Evaluation.warm` can execute the
whole job graph for a set of experiments in parallel before the
experiments read it back.  Without a runner the behaviour is the
original in-process one — no disk I/O, no worker processes.

The ``runner`` argument is duck-typed on ``run``/``run_job``:
:class:`repro.service.client.ServiceRunner` slots in the same way
(``repro-eval --service URL``) and ships the identical job graph to a
remote broker executed by ``repro-worker`` processes — outputs are
byte-identical to local execution because both paths materialise the
same content-hash-keyed jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.compiler import PassManager, PipelineConfig
from repro.ir.program import Program
from repro.machine.configs import by_name, spec_by_name
from repro.machine.description import MachineDescription
from repro.machine.spec import MachineSpec
from repro.profiling.profile_run import ProfileData, profile_program
from repro.core.metrics import ProgramCompilation
from repro.core.program_sim import ProgramSimResult, simulate_program
from repro.core.speculation import SpeculationConfig
from repro.workloads.suite import BENCHMARKS, load_benchmark, resolve_benchmarks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.runner import Job, Runner


#: How an experiment names a machine: a registry name, a spec-file path,
#: or an inline :class:`MachineSpec`.
MachineRef = Union[str, MachineSpec]

#: The default machine roles: the paper's primary 4-wide machine and its
#: doubled Table 4 twin, as registry names.
DEFAULT_MACHINES: Tuple[Tuple[str, MachineRef], ...] = (
    ("base", "playdoh-4w"),
    ("wide", "playdoh-8w"),
)


@dataclass(frozen=True)
class EvaluationSettings:
    """Knobs shared by all experiments.

    ``machines`` maps the *roles* experiments reference (``base``,
    ``wide``) to machine specs — registry names, spec-file paths, or
    inline :class:`MachineSpec` objects.  The defaults are the paper's
    machines; :meth:`with_machine` rebinds a role, which is how the
    explore driver sweeps machine axes without touching any experiment
    code.
    """

    scale: float = 1.0
    spec_config: SpeculationConfig = field(default_factory=SpeculationConfig)
    benchmarks: Tuple[str, ...] = tuple(BENCHMARKS)
    machines: Tuple[Tuple[str, MachineRef], ...] = DEFAULT_MACHINES

    def with_threshold(self, threshold: float) -> "EvaluationSettings":
        return replace(
            self, spec_config=replace(self.spec_config, threshold=threshold)
        )

    def with_benchmarks(
        self, benchmarks: Optional[Sequence[str]]
    ) -> "EvaluationSettings":
        """Restrict the suite; names are validated against the registry."""
        if not benchmarks:
            return self
        return replace(self, benchmarks=resolve_benchmarks(benchmarks))

    def with_machine(
        self, role: str, machine: Union[MachineRef, MachineDescription]
    ) -> "EvaluationSettings":
        """Bind ``role`` (e.g. ``"base"``) to a machine spec/name/path."""
        if isinstance(machine, MachineDescription):
            machine = MachineSpec.from_description(machine)
        bound = dict(self.machines)
        bound[role] = machine
        return replace(self, machines=tuple(bound.items()))

    def machine_ref(self, role: str) -> MachineRef:
        refs = dict(self.machines)
        try:
            return refs[role]
        except KeyError:
            raise KeyError(
                f"no machine bound for role {role!r}; bound: {sorted(refs)}"
            ) from None

    def machine_spec(self, role: str) -> MachineSpec:
        """The resolved :class:`MachineSpec` bound to ``role``."""
        ref = self.machine_ref(role)
        if isinstance(ref, MachineSpec):
            return ref
        return spec_by_name(ref)


#: Pipeline products each experiment reads, as (stage, machine role,
#: model_icache, collect_cycles) tuples.  ``warm`` uses this to pre-build
#: the job graph; roles resolve through ``EvaluationSettings.machines``.
#: The baseline comparison always simulates with cycle accounting: its
#: overhead columns are defined in terms of the attributed stacks (see
#: :mod:`repro.evaluation.baseline_cmp`).
EXPERIMENT_NEEDS: Dict[str, Tuple[Tuple[str, str, bool, bool], ...]] = {
    "table2": (("simulate", "base", False, False),),
    "table3": (("compile", "base", False, False),),
    "table4": (
        ("simulate", "base", False, False),
        ("simulate", "wide", False, False),
    ),
    "figure8": (("compile", "base", False, False),),
    "baseline": (("simulate", "base", True, True),),
    "regions": (("compile", "base", False, False),),
    "example": (),
}


# -- process-wide shared build/profile products ------------------------------
#
# A sweep constructs one Evaluation per point, but the build and profile
# stages depend only on (benchmark, scale, pipeline) — not on the
# machine or speculation knobs being swept.  Sharing them process-wide
# means every point of a runner-less sweep sees the *same* Program
# object graph, which in turn lets the identity-keyed per-block compile
# memos (:mod:`repro.core.compile_cache`) and the batched simulation
# context (:mod:`repro.batchsim`) hit across points.  Pure memos:
# ``load_benchmark``/``run_program_passes``/``profile_program`` are
# deterministic.  ``repro.batchsim.reset_shared_state`` clears these
# together with the other process-wide caches.

_SHARED_PROGRAMS: Dict[Tuple[str, float, Optional[str]], Program] = {}
_SHARED_PROFILES: Dict[Tuple[str, float, Optional[str]], ProfileData] = {}


def reset_shared_products() -> None:
    """Drop the process-wide build/profile memos (bench/test isolation)."""
    _SHARED_PROGRAMS.clear()
    _SHARED_PROFILES.clear()


def _shared(store: Dict, key: Tuple, compute):
    if key not in store:
        store[key] = compute()
    return store[key]


class Evaluation:
    """Caching front end over profile -> compile -> simulate."""

    def __init__(
        self,
        settings: Optional[EvaluationSettings] = None,
        runner: Optional["Runner"] = None,
        collect_metrics: bool = False,
        collect_cycles: bool = False,
        trace_store=None,
    ):
        self.settings = settings or EvaluationSettings()
        self.runner = runner
        #: When set, every simulate stage aggregates an observability
        #: snapshot into its result (``ProgramSimResult.metrics``); see
        #: :meth:`metrics_snapshot`.  Off by default — simulate job keys
        #: and timing outputs are unchanged.
        self.collect_metrics = collect_metrics
        #: When set, every simulate stage attributes each simulated cycle
        #: to one cause (``ProgramSimResult.cycle_stacks``; see
        #: :mod:`repro.obs.cycles`).  Off by default — simulate job keys
        #: and timing outputs are unchanged.
        self.collect_cycles = collect_cycles
        #: Trace cache for runner-less execution (the runner path caches
        #: traces as jobs instead).  ``None`` uses the process-wide
        #: default store, so *separate* Evaluation instances over the
        #: same built program — a threshold sweep — still interpret it
        #: only once.  Pass a fresh :class:`repro.trace.TraceStore` to
        #: isolate.
        self.trace_store = trace_store
        self._machines: Dict[str, MachineDescription] = {}
        self._programs: Dict[str, Program] = {}
        self._profiles: Dict[str, ProfileData] = {}
        self._compilations: Dict[Tuple[str, str], ProgramCompilation] = {}
        self._simulations: Dict[
            Tuple[str, str, bool, bool], ProgramSimResult
        ] = {}
        # Non-standard-pipeline products, keyed by pipeline fingerprint.
        self._variant_programs: Dict[Tuple[str, str], Program] = {}
        self._variant_profiles: Dict[Tuple[str, str], ProfileData] = {}
        self._variant_compilations: Dict[
            Tuple[str, str, str], ProgramCompilation
        ] = {}

    # -- pipeline stages ----------------------------------------------------

    def _trace_of(self, program: Program):
        """The value trace for ``program``, captured on first use through
        the configured (or default process-wide)
        :class:`repro.trace.TraceStore`."""
        from repro.trace.store import default_store

        store = self.trace_store if self.trace_store is not None else default_store()
        return store.get_or_capture(program)

    def program(self, name: str) -> Program:
        if name not in self._programs:
            if self.runner is not None:
                # The runner's build job is the canonical program: its op
                # ids are what the cached profiles and compilations
                # reference, so the parent must use the same object graph.
                # adopt_program keeps later op-creating passes (regions
                # unrolling) from minting ids that collide with it.
                from repro.runner import adopt_program, build_job

                self._programs[name] = adopt_program(
                    self.runner.run_job(
                        build_job(name, scale=self.settings.scale)
                    )
                )
            else:
                self._programs[name] = _shared(
                    _SHARED_PROGRAMS,
                    (name, self.settings.scale, None),
                    lambda: load_benchmark(name, scale=self.settings.scale),
                )
        return self._programs[name]

    def profile(self, name: str) -> ProfileData:
        if name not in self._profiles:
            if self.runner is not None:
                from repro.runner import profile_job

                self._profiles[name] = self.runner.run_job(
                    profile_job(name, scale=self.settings.scale)
                )
            else:
                program = self.program(name)
                self._profiles[name] = _shared(
                    _SHARED_PROFILES,
                    (name, self.settings.scale, None),
                    lambda: profile_program(program, trace=self._trace_of(program)),
                )
        return self._profiles[name]

    def compilation(
        self, name: str, machine: MachineDescription
    ) -> ProgramCompilation:
        key = (name, machine.name)
        if key not in self._compilations:
            if self.runner is not None:
                from repro.runner import compile_job

                self._compilations[key] = self.runner.run_job(
                    compile_job(
                        name,
                        machine,
                        scale=self.settings.scale,
                        spec_config=self.settings.spec_config,
                    )
                )
            else:
                self._compilations[key] = PassManager().compile(
                    self.program(name),
                    machine,
                    self.profile(name),
                    spec_config=self.settings.spec_config,
                )
        return self._compilations[key]

    # -- pipeline variants ---------------------------------------------------
    #
    # A *variant* is the same benchmark compiled under a non-standard
    # :class:`repro.compiler.PipelineConfig` — e.g. the region-size
    # sweeps' unrolled loops.  With a runner, variants are ordinary
    # build/profile/compile jobs (so every unroll factor is a durable
    # on-disk cache entry); without one, the pass manager runs inline.

    def variant_program(self, name: str, pipeline: PipelineConfig) -> Program:
        key = (name, pipeline.fingerprint())
        if key not in self._variant_programs:
            if self.runner is not None:
                from repro.runner import adopt_program, build_job

                self._variant_programs[key] = adopt_program(
                    self.runner.run_job(
                        build_job(
                            name, scale=self.settings.scale, pipeline=pipeline
                        )
                    )
                )
            else:
                self._variant_programs[key] = _shared(
                    _SHARED_PROGRAMS,
                    (name, self.settings.scale, pipeline.fingerprint()),
                    lambda: PassManager(pipeline).run_program_passes(
                        self.program(name)
                    ),
                )
        return self._variant_programs[key]

    def variant_profile(self, name: str, pipeline: PipelineConfig) -> ProfileData:
        key = (name, pipeline.fingerprint())
        if key not in self._variant_profiles:
            if self.runner is not None:
                from repro.runner import profile_job

                self._variant_profiles[key] = self.runner.run_job(
                    profile_job(
                        name, scale=self.settings.scale, pipeline=pipeline
                    )
                )
            else:
                program = self.variant_program(name, pipeline)
                self._variant_profiles[key] = _shared(
                    _SHARED_PROFILES,
                    (name, self.settings.scale, pipeline.fingerprint()),
                    lambda: profile_program(program, trace=self._trace_of(program)),
                )
        return self._variant_profiles[key]

    def variant_compilation(
        self, name: str, machine: MachineDescription, pipeline: PipelineConfig
    ) -> ProgramCompilation:
        key = (name, machine.name, pipeline.fingerprint())
        if key not in self._variant_compilations:
            if self.runner is not None:
                from repro.runner import compile_job

                self._variant_compilations[key] = self.runner.run_job(
                    compile_job(
                        name,
                        machine,
                        scale=self.settings.scale,
                        spec_config=self.settings.spec_config,
                        pipeline=pipeline,
                    )
                )
            else:
                self._variant_compilations[key] = PassManager(pipeline).compile(
                    self.variant_program(name, pipeline),
                    machine,
                    self.variant_profile(name, pipeline),
                    spec_config=self.settings.spec_config,
                )
        return self._variant_compilations[key]

    def simulation(
        self,
        name: str,
        machine: MachineDescription,
        model_icache: bool = False,
        collect_cycles: Optional[bool] = None,
    ) -> ProgramSimResult:
        """One dynamic simulation (memoised per parameter point).

        ``collect_cycles=None`` inherits the evaluation-wide setting;
        ``True`` forces cycle accounting for this read regardless (the
        baseline-comparison experiment does this — its overhead columns
        need the attributed stacks).
        """
        cycles = self.collect_cycles if collect_cycles is None else collect_cycles
        key = (name, machine.name, model_icache, cycles)
        if key not in self._simulations:
            if self.runner is not None:
                from repro.runner import simulate_job

                self._simulations[key] = self.runner.run_job(
                    simulate_job(
                        name,
                        machine,
                        scale=self.settings.scale,
                        spec_config=self.settings.spec_config,
                        model_icache=model_icache,
                        collect_metrics=self.collect_metrics,
                        collect_cycles=cycles,
                    )
                )
            else:
                compilation = self.compilation(name, machine)
                self._simulations[key] = simulate_program(
                    compilation,
                    model_icache=model_icache,
                    collect_metrics=self.collect_metrics,
                    collect_cycles=cycles,
                    trace=self._trace_of(compilation.program),
                )
        return self._simulations[key]

    # -- runner integration -------------------------------------------------

    def required_jobs(
        self, experiments: Optional[Iterable[str]] = None
    ) -> List["Job"]:
        """The job graph covering ``experiments`` (default: all of them)."""
        from repro.runner import compile_job, simulate_job

        names = list(experiments) if experiments is not None else list(
            EXPERIMENT_NEEDS
        )
        jobs: List["Job"] = []
        seen = set()
        for experiment in names:
            for stage, role, model_icache, force_cycles in EXPERIMENT_NEEDS.get(
                experiment, ()
            ):
                machine = self.machine_for(role)
                for benchmark in self.settings.benchmarks:
                    if stage == "simulate":
                        # Mirror simulation()'s spec exactly, or warmed
                        # jobs would miss the keys the reads use.
                        job = simulate_job(
                            benchmark,
                            machine,
                            scale=self.settings.scale,
                            spec_config=self.settings.spec_config,
                            model_icache=model_icache,
                            collect_metrics=self.collect_metrics,
                            collect_cycles=force_cycles or self.collect_cycles,
                        )
                    else:
                        job = compile_job(
                            benchmark,
                            machine,
                            scale=self.settings.scale,
                            spec_config=self.settings.spec_config,
                        )
                    if job.key() not in seen:
                        seen.add(job.key())
                        jobs.append(job)
        return jobs

    def warm(self, experiments: Optional[Iterable[str]] = None) -> int:
        """Execute (in parallel, when the runner allows) every pipeline job
        the given experiments will need, so subsequent ``compute`` calls
        are pure cache reads.  Returns the number of jobs in the graph.
        No-op without a runner."""
        if self.runner is None:
            return 0
        jobs = self.required_jobs(experiments)
        if jobs:
            self.runner.run(jobs)
        return len(jobs)

    # -- observability --------------------------------------------------------

    def seed_from(self, other: "Evaluation") -> "Evaluation":
        """Adopt another evaluation's cached programs and profiles.

        Lets a benchmark harness pay the (expensive, compiler-unrelated)
        build/profile stages once and then time compile/simulate from a
        cold start repeatedly.  Compilations and simulations are *not*
        copied — those are the stages being measured.
        """
        self._programs.update(other._programs)
        self._profiles.update(other._profiles)
        return self

    @property
    def simulation_results(self) -> List[ProgramSimResult]:
        """Every simulation result this evaluation has produced so far."""
        return list(self._simulations.values())

    def cycle_stack_results(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Cycle stacks of every simulation run so far.

        Keyed ``benchmark@machine`` (icache-modelled simulations get an
        ``+icache`` suffix); values are the per-machine-model stacks from
        :attr:`repro.core.program_sim.ProgramSimResult.cycle_stacks`.
        Simulations run without cycle accounting are skipped.
        """
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for (name, machine, icache, _cycles), result in sorted(
            self._simulations.items()
        ):
            stacks = getattr(result, "cycle_stacks", None)
            if not stacks:
                continue
            out[f"{name}@{machine}" + ("+icache" if icache else "")] = stacks
        return out

    def metrics_snapshot(self):
        """Merge of every collected simulation metrics snapshot so far.

        Requires ``collect_metrics=True``; returns a
        :class:`repro.obs.metrics.MetricsSnapshot` covering all
        (benchmark, machine) simulations this evaluation has run.
        """
        from repro.obs.metrics import MetricsSnapshot

        if not self.collect_metrics:
            raise RuntimeError(
                "metrics_snapshot() needs Evaluation(collect_metrics=True)"
            )
        total = MetricsSnapshot.empty()
        for result in self._simulations.values():
            if result.metrics is not None:
                total = total.merged(result.metrics)
        return total

    # -- convenience ----------------------------------------------------------

    @property
    def benchmarks(self) -> List[str]:
        return list(self.settings.benchmarks)

    def machine_for(self, role: str) -> MachineDescription:
        """The built machine bound to ``role`` in the settings.

        Registry names resolve to the shared module constants (so the
        default evaluation uses the identical ``PLAYDOH_4W`` object the
        rest of the codebase does); specs and spec files build once per
        evaluation.
        """
        if role not in self._machines:
            ref = self.settings.machine_ref(role)
            if isinstance(ref, MachineSpec):
                self._machines[role] = ref.build()
            else:
                self._machines[role] = by_name(ref)
        return self._machines[role]

    @property
    def machine_4w(self) -> MachineDescription:
        """The machine bound to the ``base`` role (``playdoh-4w`` by
        default); kept for callers written against the paper's names."""
        return self.machine_for("base")

    @property
    def machine_8w(self) -> MachineDescription:
        """The machine bound to the ``wide`` role (``playdoh-8w`` by
        default)."""
        return self.machine_for("wide")


def geometric_mean(values: List[float]) -> float:
    """Geometric mean (safe for the ratio metrics used throughout).

    Raises ``ValueError`` for an empty input — a silently-empty
    experiment must not report a 0.0 geomean as if it were data.
    """
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
