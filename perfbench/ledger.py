"""Split a cProfile run's self time and call counts across repro layers.

Each ``repro`` module belongs to one layer (:func:`layer_of`).  A frame
outside ``repro`` -- a builtin, the standard library, numpy, or this
harness -- is charged to the repro layers that called it, in
proportion to call counts taken from pstats' ``callers`` edges.  A
chain of non-repro frames is followed upward until it reaches repro
code.  Whatever never reaches a repro frame (the harness loop itself)
is reported as ``other``.

Call counts are deterministic for a deterministic program, so
``calls`` repeats exactly between runs of one seed; self time is
inflated by the profiler and is only reported as a fraction.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: The layers, in the order they are reported.
LAYERS = (
    "workloads",
    "experiments",
    "sim",
    "sim.sharded",
    "core",
    "disk",
    "disk.cache",
    "raid",
    "metrics",
    "power",
    "obs",
    "serve",
)

#: Deterministic model counts reported beside the ledger; like the
#: call counts they repeat exactly for one seed.
COUNTS = (
    "sim.events_per_request",
    "disk.cache.hit_ratio",
    "raid.physical_per_logical",
    "serve.hit_fraction",
)

#: Sub-packages outside the twelve layers, charged to the layer they
#: serve: chaos failpoints are instrumentation, drive fault policy is
#: drive behaviour, and cost/tools are experiment-level code.
_FOLDED = {
    "chaos": "obs",
    "faults": "disk",
    "cost": "experiments",
    "tools": "experiments",
}

#: Rounds of upward propagation through non-repro callers; deeper
#: chains (or cycles) leave their remaining share in ``other``.
_ROUNDS = 64

Key = Tuple[str, int, str]


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """The layer of a source file, or ``None`` outside ``repro``."""
    if not filename.startswith(repro_dir + os.sep):
        return None
    parts = filename[len(repro_dir) + 1:].split(os.sep)
    if len(parts) == 1:
        # cli.py, __init__.py, __main__.py: the package's entry points.
        return "experiments"
    package, module = parts[0], parts[1]
    if package == "sim" and module == "sharded.py":
        return "sim.sharded"
    if package == "disk" and module == "cache.py":
        return "disk.cache"
    if package in LAYERS:
        return package
    return _FOLDED.get(package, "experiments")


def attribute(stats: Dict, repro_dir: str) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from ``pstats.Stats.stats``.

    Returns ``{layer: {"self_s": ..., "calls": ...}}`` for every layer
    in :data:`LAYERS` plus ``other`` (self time only).
    """
    repro_dir = os.path.realpath(repro_dir)
    keys = sorted(stats)
    direct = {
        key: layer_of(os.path.realpath(key[0]), repro_dir)
        if not key[0].startswith(("~", "<"))
        else None
        for key in keys
    }
    # Normalised caller weights of each non-repro frame.
    edges: Dict[Key, list] = {}
    for key in keys:
        if direct[key] is not None:
            continue
        callers = stats[key][4]
        weights = [
            (caller, entry[0])
            for caller, entry in sorted(callers.items())
            if caller != key and entry[0] > 0
        ]
        total = sum(count for _, count in weights)
        edges[key] = [(caller, count / total) for caller, count in weights]

    shares: Dict[Key, Dict[str, float]] = {key: {} for key in edges}
    for _ in range(_ROUNDS):
        updated: Dict[Key, Dict[str, float]] = {}
        for key, weights in edges.items():
            share: Dict[str, float] = {}
            for caller, weight in weights:
                layer = direct.get(caller)
                if layer is not None:
                    share[layer] = share.get(layer, 0.0) + weight
                    continue
                for upper, part in shares.get(caller, {}).items():
                    share[upper] = share.get(upper, 0.0) + weight * part
            updated[key] = share
        if updated == shares:
            break
        shares = updated

    ledger = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    ledger["other"] = {"self_s": 0.0}
    for key in keys:
        _, calls, self_s, _, _ = stats[key]
        layer = direct[key]
        if layer is not None:
            ledger[layer]["self_s"] += self_s
            ledger[layer]["calls"] += calls
            continue
        reached = 0.0
        for upper, part in sorted(shares[key].items()):
            ledger[upper]["self_s"] += self_s * part
            ledger[upper]["calls"] += calls * part
            reached += part
        ledger["other"]["self_s"] += self_s * max(0.0, 1.0 - reached)
    return ledger
