"""Chaos harness: run a variant x fault-profile matrix and check it.

Each cell runs one stencil variant under one fault profile on a fresh
simulator and is judged against the profile's ``expect``:

``"converge"``
    The run must finish and its gathered result must equal the serial
    :func:`~repro.stencil.reference.jacobi_reference` *exactly*
    (``np.array_equal``) — transient faults are allowed to cost time,
    never numerics.
``"diagnostic"``
    The run must END in a :class:`~repro.sim.WatchdogError` (or a
    :class:`~repro.faults.inject.SignalWaitTimeout`) rather than hang
    or silently produce wrong data.  Variants the injected fault cannot
    reach (e.g. a lost NVSHMEM signal against a copy-based variant) are
    held to ``"converge"`` instead.  Under a fail-stop crash plan a
    post-crash :class:`~repro.sim.DeadlockError` also counts — a dead
    PE legitimately strands joiners with no watched signal in sight —
    and the cell error names the dead PEs.
``"recover"``
    The cell runs through :func:`repro.recover.run_with_recovery`: the
    crash must fire, recovery must restart from a checkpoint, and the
    final field must be byte-identical to the fault-free reference.

The report is a plain JSON-safe dict assembled in submission order
with sorted keys throughout — byte-identical across repeated runs of
the same matrix and across ``--jobs`` settings (cells fan out through
:class:`~repro.perf.sweep.SweepRunner`, which preserves the same
contract for the merged metrics registry).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.faults.profiles import get_plan, parse_profile
from repro.obs.stablejson import dumps_stable
from repro.perf.sweep import SweepRunner

__all__ = ["DEFAULT_MATRIX_PROFILES", "render_report", "run_cell", "run_matrix"]

#: profiles exercised when the CLI is invoked without ``--profiles``
DEFAULT_MATRIX_PROFILES = ("none", "transient", "degraded", "link_down", "lost_signal")


def run_cell(
    variant: str,
    profile: str,
    shape: tuple[int, ...],
    num_gpus: int,
    iterations: int,
) -> dict[str, Any]:
    """Run one (variant, profile) cell and judge it.  Top-level and
    picklable so :class:`SweepRunner` can fan cells out to processes."""
    # imports kept inside the worker: the harness module itself must
    # stay importable without pulling the whole simulator stack in
    import repro.stencil.variants  # noqa: F401 - populate the registry
    from repro.faults.inject import DeliveryError, SignalWaitTimeout
    from repro.recover import UnrecoverableCrashError, run_with_recovery
    from repro.sim import DeadlockError, WatchdogError
    from repro.stencil.base import VARIANTS, StencilConfig, default_initial
    from repro.stencil.reference import jacobi_reference

    plan = get_plan(profile)
    cls = VARIANTS[variant]
    expect = plan.expect
    if expect == "diagnostic" and plan.deliveries and not cls.uses_nvshmem:
        # delivery faults ride NVSHMEM messages; this variant sends
        # none, so the fault never fires and the run must just converge
        expect = "converge"

    config = StencilConfig(
        global_shape=tuple(shape),
        num_gpus=num_gpus,
        iterations=iterations,
        fault_profile=profile,
    )
    cell: dict[str, Any] = {
        "variant": variant,
        "profile": profile,
        "expect": expect,
        "status": None,
        "ok": False,
        "sim_time_us": None,
        "error": None,
        "faults": None,
        "recover": None,
    }

    def dead_pes(injector) -> str:
        if injector is None or not injector.crashed:
            return ""
        dead = ", ".join(f"pe{pe} at t={t:.3f}us"
                         for pe, t in sorted(injector.crashed.items()))
        return f" — dead PEs: {dead}"

    if expect == "recover":
        try:
            outcome = run_with_recovery(cls, config, plan=plan)
        except UnrecoverableCrashError as exc:
            cell["status"] = "diagnostic"
            cell["error"] = str(exc).splitlines()[0]
            return cell
        cell["recover"] = outcome.report()
        cell["faults"] = outcome.faults
        cell["sim_time_us"] = outcome.total_time_us
        expected = jacobi_reference(
            default_initial(config.global_shape, config.seed), config.iterations
        )
        if outcome.result is not None and not np.array_equal(outcome.result, expected):
            cell["status"] = "diverged"
        elif outcome.recovered:
            cell["status"] = "recovered"
            cell["ok"] = True
        else:
            # the seeded crash never landed inside the run — converged,
            # but the profile did not exercise recovery: not ok
            cell["status"] = "converged"
            cell["ok"] = not plan.crashes
        return cell

    instance = cls(config)
    try:
        result = instance.run()
    except (WatchdogError, SignalWaitTimeout) as exc:
        instance.ctx.sim.close()
        cell["status"] = "diagnostic"
        cell["error"] = str(exc).splitlines()[0] + dead_pes(instance.faults)
        cell["ok"] = expect == "diagnostic"
    except DeadlockError as exc:
        instance.ctx.sim.close()
        if plan.crashes and instance.faults is not None and instance.faults.crashed:
            # a dead PE strands joiners with no watched flag in sight:
            # the deadlock IS the crash diagnostic
            cell["status"] = "diagnostic"
            cell["error"] = str(exc).splitlines()[0] + dead_pes(instance.faults)
            cell["ok"] = expect == "diagnostic"
        else:
            cell["status"] = "failed"
            cell["error"] = str(exc).splitlines()[0]
    except DeliveryError as exc:
        instance.ctx.sim.close()
        cell["status"] = "failed"
        cell["error"] = str(exc).splitlines()[0]
    else:
        expected = jacobi_reference(
            default_initial(config.global_shape, config.seed), config.iterations
        )
        if result.result is not None and not np.array_equal(result.result, expected):
            cell["status"] = "diverged"
        else:
            cell["status"] = "converged"
            cell["ok"] = expect == "converge"
        cell["sim_time_us"] = result.total_time_us
    if instance.faults is not None:
        cell["faults"] = instance.faults.summary()
    return cell


def run_matrix(
    variants: Sequence[str],
    profiles: Sequence[str],
    *,
    shape: tuple[int, ...] = (34, 66),
    num_gpus: int = 2,
    iterations: int = 6,
    jobs: int = 1,
) -> dict[str, Any]:
    """Run the full matrix and assemble the (byte-stable) report."""
    for profile in profiles:
        get_plan(profile)  # fail on typos before any cell runs
    cells = [
        (variant, profile, tuple(shape), num_gpus, iterations)
        for variant in variants
        for profile in profiles
    ]
    runner = SweepRunner(jobs=jobs)
    rows = runner.map(run_cell, cells)
    failures = [
        f"{row['variant']}/{row['profile']}: expected {row['expect']}, got {row['status']}"
        for row in rows
        if not row["ok"]
    ]
    return {
        "matrix": {
            "variants": list(variants),
            "profiles": list(profiles),
            "shape": list(shape),
            "num_gpus": num_gpus,
            "iterations": iterations,
            "seeds": {spec: parse_profile(spec)[1] for spec in profiles},
        },
        "cells": rows,
        "failures": failures,
        "ok": not failures,
    }


def render_report(report: dict[str, Any]) -> str:
    """Canonical byte-stable JSON text of a matrix report."""
    return dumps_stable(report)
