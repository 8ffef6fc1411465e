"""Span recording around calls into the program's layers.

Tracing wraps the public functions below wherever a ``qcipher`` module has
bound them, for the duration of a ``with`` block, and records one span per
call: name, pass, parent, start, end, register width and counts. Spans stay in
memory and are written out as JSONL when the run ends. Peak allocation is
measured in a pass of its own under ``tracemalloc``, which slows Python-heavy
calls several-fold and must never share a pass with timing.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

MIB = 1 << 20


def _amp_bytes(state) -> dict:
    return {"n": state.n, "amp_bytes": state.amps.nbytes}


# Span name -> attributes taken from (args, result).
TARGETS = {
    "statevector.apply_single": lambda a, r: _amp_bytes(r),
    "statevector.apply_cnot": lambda a, r: _amp_bytes(r),
    "statevector.tensor": lambda a, r: _amp_bytes(r),
    "statevector.measure_all": lambda a, r: _amp_bytes(a[0]),
    "keyschedule.generate_key": lambda a, r: {"n": r.n},
    "keyschedule.key_circuit": lambda a, r: {"n": a[0].n, "gates": len(r)},
    "keyschedule.key_from_json": lambda a, r: {"n": r.n, "bytes": len(a[0])},
    "cipher.encrypt_block": lambda a, r: _amp_bytes(r.state),
    "cipher.decrypt_block": lambda a, r: {"n": a[0].n},
    "modes.mode1_encrypt": lambda a, r: {"n": r.n, "blocks": r.m},
    "modes.mode1_decrypt": lambda a, r: {"n": a[1].n, "blocks": a[1].m},
    "modes.mode2_encrypt": lambda a, r: {"blocks": r.m, **_amp_bytes(r.joint)},
    "modes.mode2_decrypt": lambda a, r: {"n": a[1].n * a[1].m, "blocks": a[1].m},
    "modes.transmission_to_json": lambda a, r: {"blocks": a[0].m, "bytes": len(r)},
    "modes.transmission_from_json": lambda a, r: {"blocks": r.m, "bytes": len(a[0])},
    "analysis.numeric_dependence_matrix": lambda a, r: {"n": a[0].n},
    "analysis.diffusion_profile": lambda a, r: {"n": a[0].n},
    "analysis.verify_dependence_rules": lambda a, r: {"n": r.n, "trials": r.trials},
    "adversary.collision_probability": lambda a, r: {"n": a[0].n},
    "adversary.detection_experiment": lambda a, r: {"n": a[0].n, "copies": r.counts["copies"]},
    "adversary.marginal_estimation_attack": lambda a, r: {"n": a[0].n, "samples": a[2]},
    "adversary.brute_force_key_recovery": lambda a, r: {"n": a[0], "consistent": len(r)},
    "cli.main": lambda a, r: {"exit": r},
}
ALLOC_TARGETS = (
    "modes.mode2_encrypt",
    "modes.mode2_decrypt",
    "modes.transmission_to_json",
    "modes.transmission_from_json",
)

# Per-layer metrics: (name, unit, better). Timings are medians of span
# durations; the alloc figures come from the tracemalloc pass.
TIMED = (
    "statevector.apply_single", "statevector.apply_cnot", "statevector.tensor",
    "statevector.measure_all", "keyschedule.key_circuit", "cipher.encrypt_block",
    "cipher.decrypt_block", "modes.mode2_encrypt", "modes.mode2_decrypt", "cli.encrypt",
    "cli.decrypt", "keyschedule.key_from_json", "modes.mode1_encrypt", "modes.mode1_decrypt",
    "modes.transmission_to_json", "modes.transmission_from_json",
    "analysis.numeric_dependence_matrix", "analysis.diffusion_profile",
    "analysis.verify_dependence_rules", "adversary.collision_probability",
    "adversary.detection_experiment", "adversary.marginal_estimation_attack",
    "adversary.brute_force_key_recovery", "keyschedule.generate_key",
)
PER_LAYER = (
    [(f"{name}_s", "s", "lower") for name in TIMED]
    + [(f"{name}.peak_alloc_mb", "MiB", "lower") for name in ALLOC_TARGETS]
    + [
        ("statevector.amp_bytes", "bytes", "lower"),
        ("cipher.gates_per_block", "count", "lower"),
        ("modes.transmission_bytes", "bytes", "lower"),
        ("adversary.keys_enumerated", "count", "lower"),
    ]
)


def _bindings(qual: str):
    """The function ``qual`` names, and every (module, attribute) of a loaded
    qcipher module bound to it."""
    mod, fname = qual.split(".")
    orig = getattr(sys.modules[f"qcipher.{mod}"], fname)
    sites = [(module, attr) for name, module in list(sys.modules.items())
             if name == "qcipher" or name.startswith("qcipher.")
             for attr, value in list(vars(module).items()) if value is orig]
    return orig, sites


class Recorder:
    """Spans of one run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_name = ""
        self._stack: list[int] = []

    def _timed(self, qual, fn, attrs):
        def wrapper(*args, **kwargs):
            name = f"cli.{args[0][0]}" if qual == "cli.main" else qual
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "pass": self.pass_name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(attrs(args, result))
            return result

        return wrapper

    def _alloc(self, qual, fn, attrs):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            self.spans.append({"id": len(self.spans), "parent": None, "name": qual,
                               "pass": self.pass_name, "peak_alloc_mb": (peak - base) / MIB})
            return result

        return wrapper

    @contextmanager
    def patched(self, alloc: bool = False):
        """Wrap the targets for the block; with ``alloc``, only the
        allocation targets, measured under tracemalloc."""
        saved = []
        for qual in ALLOC_TARGETS if alloc else TARGETS:
            orig, sites = _bindings(qual)
            make = self._alloc if alloc else self._timed
            wrapper = make(qual, orig, TARGETS[qual])
            for module, attr in sites:
                saved.append((module, attr, orig))
                setattr(module, attr, wrapper)
        if alloc:
            tracemalloc.start()
        try:
            yield self
        finally:
            if alloc:
                tracemalloc.stop()
            for module, attr, orig in saved:
                setattr(module, attr, orig)

    def metrics(self) -> dict:
        """Every per-layer metric. Spans of the workload's own operations
        ("op", "alloc-op") come first; layers the workload does not reach
        are read from the small fixed cover pass."""

        def first(passes, value) -> list:
            """value(span) over the spans of the first pass where it is not None."""
            for p in passes:
                vals = [v for s in self.spans if s["pass"] == p and (v := value(s)) is not None]
                if vals:
                    return vals
            raise KeyError(f"no span gives a value in passes {passes}")

        def field(name, key):
            return lambda s: s.get(key) if s["name"] == name else None

        for s in self.spans:
            if "end" in s:
                s["dur"] = s["end"] - s["start"]
        by_id = {s["id"]: s for s in self.spans}
        children: dict[int, int] = {}
        for s in self.spans:
            if s["name"] == "cipher.encrypt_block" and s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0) + 1

        def block_gates(s):
            # Key circuits built by encrypt_block, as (width, gates).
            if s["name"] == "keyschedule.key_circuit" and s["parent"] is not None \
                    and by_id[s["parent"]]["name"] == "cipher.encrypt_block":
                return s["n"], s["gates"]
            return None

        timed, alloc = ("op", "cover"), ("alloc-op", "alloc-cover")
        out = {f"{name}_s": statistics.median(first(timed, field(name, "dur"))) for name in TIMED}
        for name in ALLOC_TARGETS:
            out[f"{name}.peak_alloc_mb"] = statistics.median(first(alloc, field(name, "peak_alloc_mb")))
        out["statevector.amp_bytes"] = max(first(timed, lambda s: s.get("amp_bytes")))
        out["cipher.gates_per_block"] = max(first(timed, block_gates))[1]
        out["modes.transmission_bytes"] = statistics.median(first(timed, field("modes.transmission_to_json", "bytes")))
        out["adversary.keys_enumerated"] = statistics.median(
            first(timed, lambda s: children.get(s["id"], 0) if s["name"] == "adversary.brute_force_key_recovery" else None)
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    def write(self, path, summary: dict) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")
