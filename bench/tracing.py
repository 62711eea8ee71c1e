"""In-memory spans for the traced benchmark run.

A span records (name, start, end, parent, job), the CPU time the process
spent inside it, and optional counters.  Times are ``time.perf_counter()``
readings; on Linux that is CLOCK_MONOTONIC, so spans taken in a job process
line up with the job span the benchmark process takes around it.  Span names
are ``<layer>.<call>``, the layer being the package module that owns the call.
"""

from __future__ import annotations

import contextlib
import json
import os
import time


class Tracer:
    """Collects spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: int | None = None):
        """Time the body; yields the span record, whose counters the caller
        may fill."""
        if not self.enabled:
            yield {"id": None, "counters": {}}
            return
        rec = {"id": len(self.spans), "name": name, "job": job,
               "parent": self._open[-1] if self._open else None, "counters": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - cpu0
            self._open.pop()

    def adopt(self, spans: list[dict], parent: int, job: int) -> None:
        """Append spans recorded by a job process under the job's own span."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=base + rec["id"], job=job)
            rec["parent"] = parent if rec["parent"] is None else base + rec["parent"]
            self.spans.append(rec)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)
            fh.write("\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def call(tracer: Tracer, layer: str, fn, *args, job: int | None = None, **kwargs):
    """Call fn inside a `<layer>.<fn name>` span and attach its counters."""
    name = f"{layer}.{fn.__name__}"
    with tracer.span(name, job) as rec:
        result = fn(*args, **kwargs)
    if tracer.enabled:
        rec["counters"].update(_counters(name, args, kwargs, result))
    return result


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "scattering.sweep_scattering":
        return {"points": args[1] * args[2],
                "degenerate": int(result["degenerate"].sum())}
    if name == "boundstates.band_scan":
        # One root solve per branch and K, plus the flatness fit's solves.
        return {"solves": 2 * args[1] + result.flatness.n_points + 1}
    if name == "dynamics.evolve_localized":
        from wqed_mobile.dynamics import resolve_threads
        return {"blocks": args[0].L, "phi_bytes": result.phi.nbytes,
                "pool_threads": resolve_threads(kwargs.get("threads"))}
    if name == "dynamics.evolve_fixed_K":
        return {"blocks": 1, "phi_bytes": result.phi.nbytes}
    if name == "oracle.wavepacket_scattering_oracle":
        return {"blocks": result.n_blocks}
    if name == "cli.write_csv":
        return {"bytes": os.path.getsize(args[0])}
    return {}
