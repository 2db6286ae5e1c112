"""Per-layer tracing of qpke from outside the package.

Tracer.install replaces each traced public function with a wrapper wherever
the package binds it: the defining module and every qpke module that
imported the name (qpke.cli.encrypt, qpke.attacks.swap_test_registers, ...).
A wrapper records a span (name, job id, parent span, start, end) in memory
and adds to its name's call count, inclusive time and self time, which is
the span time minus the time of wrapped child spans.  Every call is
synchronous, so no layer has a queue and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

# layer -> traced names; a dotted name is a method on a class.
TRACED = {
    "attacks": (
        "forward_search_trial",
        "run_forward_search",
        "enumerate_forward_search_success",
        "single_use_constraint_check",
        "chosen_ciphertext_session",
        "chosen_plaintext_distinguishability",
    ),
    "protocol": (
        "swap_test_registers",
        "prepare_register",
        "apply_encryption_flags",
        "encode_redundant",
        "keygen",
        "save_private_key",
        "load_private_key",
        "KeyRegistry.issue_copy",
        "encrypt",
        "decrypt",
    ),
    "quantum_core": ("trace_distance", "von_neumann_entropy"),
    "security_analysis": (
        "estimate_mutual_information",
        "secrecy_condition",
        "ensemble_density",
    ),
    "cli": ("build_parser", "main"),
    "seeding": ("rng_stream",),
}
# Counted, not timed: (layer, name, the module whose binding is counted).
COUNTED = (("quantum_core", "sample_outcome", "protocol"),)
LAYERS = ("attacks", "protocol", "quantum_core", "security_analysis", "cli", "seeding")


def _package_modules() -> list:
    return [sys.modules["qpke"]] + [sys.modules[f"qpke.{layer}"] for layer in LAYERS]


class Tracer:
    """Span recorder for the traced names.  The wrappers are built once;
    install() swaps them in and uninstall() puts the originals back, so
    traced and untraced jobs can alternate in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.spans: list[tuple | None] = []
        self.job = -1
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = _package_modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"qpke.{layer}"]
            for name in names:
                nid = self._register(f"{layer}.{name}")
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    original = getattr(cls, method)
                    self._patches.append((cls, method, original, self._span_wrapper(nid, original)))
                    continue
                original = getattr(home, name)
                wrapper = self._span_wrapper(nid, original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        for layer, name, caller in COUNTED:
            nid = self._register(f"{layer}.{name}")
            module = sys.modules[f"qpke.{caller}"]
            original = getattr(module, name)
            self._patches.append((module, name, original, self._count_wrapper(nid, original)))

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.errors.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def _span_wrapper(self, nid: int, fn):
        spans, stack = self.spans, self._stack
        calls, errors, self_s, total_s = self.calls, self.errors, self.self_s, self.total_s
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            ok = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[nid] += 1
                total_s[nid] += duration
                self_s[nid] += duration - frame[1]
                if not ok:
                    errors[nid] += 1
                spans[frame[0]] = (nid, tracer.job, parent, start, end)

        return traced

    def _count_wrapper(self, nid: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- reading the record ---

    def index(self, name: str) -> int:
        return self.names.index(name)

    def spans_of(self, name: str, jobs: set[int] | None = None) -> list[tuple]:
        nid = self.index(name)
        return [
            s for s in self.spans
            if s is not None and s[0] == nid and (jobs is None or s[1] in jobs)
        ]

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose parent is a parent_name span."""
        parent_id, child_id = self.index(parent_name), self.index(child_name)
        spans = self.spans
        return sum(
            1 for s in spans
            if s is not None and s[0] == child_id and s[2] >= 0 and spans[s[2]][0] == parent_id
        )

    def write(self, path: Path) -> None:
        """Spans as gzip'd JSON lines after a header naming the span ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "fields": ["name", "job", "parent", "start", "end"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
