"""Declarative job specs and campaign matrices.

A :class:`Job` names everything one single-core simulation needs — the
workload (by registered factory kind), trace length/seed, warm-up and the
full :class:`~repro.config.system.SystemConfig` — and derives a
deterministic content key from it, so identical jobs collide in the result
store no matter which process or session produced them.  A
:class:`Campaign` is an ordered set of jobs, usually built by expanding an
apps × policies × SB-sizes × prefetchers matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

from repro.config.system import (
    CachePrefetcherKind,
    StorePrefetchPolicy,
    SystemConfig,
)
from repro.campaign.store import multicore_result_key
from repro.isa.trace import Trace
from repro.sim.runner import result_key
from repro.workloads import parsec, spec2017

#: Workload factories jobs may reference by name.  Factories must be
#: deterministic functions of ``(name, length=..., seed=...) -> Trace`` so a
#: job's content key fully identifies its result.  Multicore factories
#: (``parsec``) additionally take ``threads=`` and return a list of traces.
_FACTORIES: dict[str, Callable[..., Trace]] = {
    "spec2017": spec2017,
    "parsec": parsec,
}


def register_workload(kind: str, factory: Callable[..., Trace]) -> None:
    """Register (or replace) a workload factory under ``kind``."""
    _FACTORIES[kind] = factory


def workload_factory(kind: str) -> Callable[..., Trace]:
    """Resolve a registered factory; raises ``KeyError`` with the choices."""
    try:
        return _FACTORIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown workload kind {kind!r}; registered: {sorted(_FACTORIES)}"
        ) from None


@dataclass(frozen=True)
class Job:
    """One simulation cell of a campaign.

    ``threads`` selects between the two run shapes: 0 (the default) is a
    single-core run of one trace; N > 0 is one coherent multicore run of an
    N-thread workload, whose result is a
    :class:`~repro.multicore.system.MulticoreResult`.  Multicore runs have
    no warm-up phase, so ``warmup`` must stay 0 for them.
    """

    workload: str
    length: int
    config: SystemConfig
    seed: int = 1
    warmup: int = 0
    workload_kind: str = "spec2017"
    threads: int = 0

    def __post_init__(self) -> None:
        if self.threads and self.warmup:
            raise ValueError("multicore jobs do not support warm-up")

    @property
    def key(self) -> str:
        """Deterministic content key (shared with :class:`ResultsCache`).

        Hashing the config costs a JSON dump, so the key is computed once
        and memoised on the (frozen) instance.
        """
        try:
            return self.__dict__["_key"]
        except KeyError:
            pass
        if self.threads:
            key = multicore_result_key(
                self.workload, self.threads, self.length, self.seed, self.config,
                self.workload_kind,
            )
        else:
            key = result_key(
                self.workload, self.length, self.seed, self.config, self.warmup,
                self.workload_kind,
            )
        object.__setattr__(self, "_key", key)
        return key

    @property
    def trace_identity(self) -> tuple:
        """What this job's trace(s) depend on: equal identities, equal traces.

        Factories are deterministic in these fields, so jobs that differ
        only in config (or warm-up) can share one generated trace.
        """
        return (
            self.workload_kind, self.workload, self.length, self.seed,
            self.threads,
        )

    def build_trace(self) -> Trace:
        """Generate this (single-core) job's workload trace."""
        factory = workload_factory(self.workload_kind)
        return factory(self.workload, length=self.length, seed=self.seed)

    def build_traces(self) -> list[Trace]:
        """Generate this multicore job's per-thread traces."""
        factory = workload_factory(self.workload_kind)
        return factory(
            self.workload, threads=self.threads,
            length=self.length, seed=self.seed,
        )

    def describe(self) -> str:
        """Short human-readable label for progress output."""
        workload = (
            f"{self.workload}x{self.threads}" if self.threads else self.workload
        )
        return (
            f"{workload}/{self.config.store_prefetch.value}"
            f"/SB{self.config.core.store_buffer_per_thread}"
            f"/{self.config.cache_prefetcher.value}"
        )


@dataclass
class Campaign:
    """An ordered collection of jobs with a name for reporting."""

    jobs: list[Job] = field(default_factory=list)
    name: str = "campaign"

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    @staticmethod
    def kind_for_factory(factory: Callable[..., Trace]) -> str:
        """Map a factory callable back to its registered kind.

        An unregistered factory is registered under its ``module.qualname``
        when that path resolves back to the same object, which makes the
        kind unique.  Lambdas, nested functions and partials have no such
        path (two lambdas would share the name ``<lambda>`` and each other's
        results), so they raise ``ValueError``: register them first.
        """
        for kind, known in _FACTORIES.items():
            if known is factory:
                return kind
        module = sys.modules.get(getattr(factory, "__module__", None) or "")
        qualname = getattr(factory, "__qualname__", "")
        target = module
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if module is None or target is not factory:
            raise ValueError(
                f"workload factory {factory!r} has no importable name; give "
                "it a kind with repro.campaign.register_workload(kind, factory)"
            )
        kind = f"{module.__name__}.{qualname}"
        register_workload(kind, factory)
        return kind

    @classmethod
    def matrix(
        cls,
        apps: Sequence[str],
        policies: Sequence[StorePrefetchPolicy | str] = ("at-commit",),
        sb_sizes: Sequence[int] = (56,),
        prefetchers: Sequence[CachePrefetcherKind | str] = ("stream",),
        length: int = 30_000,
        seed: int = 1,
        warmup: int = 0,
        base_config: SystemConfig | None = None,
        workload_kind: str = "spec2017",
        name: str = "campaign",
        engine: str | None = None,
        threads: int = 0,
    ) -> "Campaign":
        """Expand an apps × policies × SB-sizes × prefetchers cross product.

        Every figure in the paper is one slice of this matrix; deduplicated
        job keys guarantee a cell shared by several slices simulates once.
        ``engine`` selects the execution engine for every cell ("reference"
        or "fast"); it never changes results (see the differential harness)
        or job keys, so cached cells stay shared across engines.
        ``threads`` > 0 makes every cell a multicore run of an N-thread
        workload (pair it with a multicore ``workload_kind`` such as
        "parsec"); ``config.num_cores`` follows it automatically.
        """
        base = base_config or SystemConfig()
        if engine is not None:
            base = base.with_engine(engine)
        if threads:
            base = replace(base, num_cores=threads)
        jobs: list[Job] = []
        seen: set[str] = set()
        for app in apps:
            for policy in policies:
                for size in sb_sizes:
                    for prefetcher in prefetchers:
                        config = replace(
                            base.with_sb(size).with_policy(policy),
                            cache_prefetcher=CachePrefetcherKind(prefetcher),
                        )
                        job = Job(
                            workload=app,
                            length=length,
                            config=config,
                            seed=seed,
                            warmup=warmup,
                            workload_kind=workload_kind,
                            threads=threads,
                        )
                        if job.key not in seen:
                            seen.add(job.key)
                            jobs.append(job)
        return cls(jobs, name=name)
