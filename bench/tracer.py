"""Spans for the traced run, and the per-layer metrics computed from them.

The tracer wraps garble's public functions at the module attributes their
callers look up (``garble.attack.apply_params``, ``garble.channel.apply_fir``,
...), only while a traced op runs. Each call records one span: name, start,
end, parent span, op id, whether it raised, and an optional exact count.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from garble import attack, audio_io, channel, perturb, vad

LAYERS = ("audio_io", "perturb", "features", "attack", "channel", "dsp", "vad")


def _rpg_windows(args, kwargs, _out) -> int:
    audio = args[0]
    window_ms = kwargs["window_ms"] if "window_ms" in kwargs else args[1]
    w = max(1, round(window_ms * audio.sample_rate / 1000.0))
    return -(-len(audio) // w)


def _vad_frames(args, kwargs, _out) -> int:
    audio = args[0]
    frame_ms = kwargs.get("frame_ms", args[1] if len(args) > 1 else vad.FRAME_MS)
    frame_len = max(1, round(frame_ms * audio.sample_rate / 1000.0))
    return -(-len(audio) // frame_len)


# (object holding the attribute, attribute, span name, exact count or None)
TARGETS = (
    (audio_io, "read_wav", "audio_io.read_wav", None),
    (audio_io, "canonicalize", "audio_io.canonicalize", None),
    (audio_io, "write_wav", "audio_io.write_wav", lambda a, k, out: len(out)),
    (perturb, "apply_params", "perturb.apply_params", None),
    (attack, "apply_params", "perturb.apply_params", None),
    (perturb, "tdi", "perturb.tdi", None),
    (perturb, "rpg", "perturb.rpg", _rpg_windows),
    (perturb, "hfa", "perturb.hfa", lambda a, k, out: int(out[1] < 1.0)),
    (perturb, "ts", "perturb.ts", None),
    (attack, "extract_features", "features.extract_features",
     lambda a, k, out: out.n_frames),
    (attack, "feature_distance", "features.feature_distance", None),
    (attack, "generic_attack", "attack.generic_attack", None),
    (attack.TranscriberBackend, "transcribe", "attack.transcribe", None),
    (channel, "simulate", "channel.simulate", None),
    (channel, "apply_fir", "dsp.apply_fir", None),
    (vad, "detect_speech", "vad.detect_speech", _vad_frames),
)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "error", "count")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.error = False
        self.count = None


class Tracer:
    """Holds the spans of a run and the wrappers that record them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []   # indexes of the spans now open
        self._op = None
        self._patches = []
        for holder, attr, name, count in TARGETS:
            original = vars(holder)[attr]
            self._patches.append((holder, attr, original, self._wrap(name, original, count)))

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Install the wrappers for the duration of one op."""
        for holder, attr, _original, wrapped in self._patches:
            setattr(holder, attr, wrapped)
        self._op = op_id
        try:
            yield
        finally:
            for holder, attr, original, _wrapped in self._patches:
                setattr(holder, attr, original)
            self._op = None
            self._stack.clear()

    def write(self, path, t0: float):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "op": s.op, "parent": s.parent,
                    "start_ms": (s.start - t0) * 1e3, "end_ms": (s.end - t0) * 1e3,
                    "error": s.error, "count": s.count}) + "\n")


# per-layer busy time: median over traced ops of the per-op self time
TIMES = {
    "audio_io.read_wav.ms": "audio_io.read_wav",
    "audio_io.canonicalize.ms": "audio_io.canonicalize",
    "audio_io.write_wav.ms": "audio_io.write_wav",
    "perturb.rpg.ms": "perturb.rpg",
    "perturb.tdi.ms": "perturb.tdi",
    "perturb.hfa.ms": "perturb.hfa",
    "perturb.ts.ms": "perturb.ts",
    "features.extract_features.ms": "features.extract_features",
    "features.feature_distance.ms": "features.feature_distance",
    "attack.self_ms": "attack.generic_attack",
    "channel.simulate.ms": "channel.simulate",
    "dsp.apply_fir.ms": "dsp.apply_fir",
    "vad.detect_speech.ms": "vad.detect_speech",
}

# exact counts: mean per traced op of the fixed op set; "calls" counts spans,
# "count" sums the span's own count
COUNTS = {
    "audio_io.bytes_encoded": ("audio_io.write_wav", "count", "bytes"),
    "perturb.rpg.windows": ("perturb.rpg", "count", "count"),
    "perturb.apply_params.calls": ("perturb.apply_params", "calls", "count"),
    "perturb.hfa.rescales": ("perturb.hfa", "count", "count"),
    "features.extract_features.calls": ("features.extract_features", "calls", "count"),
    "features.frames": ("features.extract_features", "count", "count"),
    "channel.simulate.calls": ("channel.simulate", "calls", "count"),
    "vad.detect_speech.calls": ("vad.detect_speech", "calls", "count"),
    "vad.frames": ("vad.detect_speech", "count", "count"),
}


def per_layer(tracer: Tracer, exact_ops: int, traced_ms: list[float],
              untraced_ms: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans. ``traced_ms[k]`` and ``untraced_ms[k]``
    time the same input with and without the wrappers; the overhead is the
    median of their ratios."""
    spans = tracer.spans
    covered = defaultdict(float)      # span index -> time its children cover
    child_error = set()               # span indexes with a child that raised
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
            if s.error:
                child_error.add(s.parent)

    ops = sorted({s.op for s in spans})
    self_ms = defaultdict(lambda: defaultdict(float))   # name -> op -> ms
    calls = defaultdict(lambda: defaultdict(int))       # name -> op -> calls
    counts = defaultdict(lambda: defaultdict(int))      # name -> op -> sum of counts
    errors = defaultdict(int)
    for i, s in enumerate(spans):
        self_ms[s.name][s.op] += (s.end - s.start - covered[i]) * 1e3
        calls[s.name][s.op] += 1
        if s.count is not None:
            counts[s.name][s.op] += s.count
        if s.name in ("perturb.apply_params", "attack.transcribe") and s.parent >= 0 \
                and spans[s.parent].name == "attack.generic_attack":
            key = "attack.candidates_rendered" if s.name == "perturb.apply_params" \
                else "attack.queries"
            counts[key][s.op] += 1
        if s.error and i not in child_error:
            errors[s.name.split(".")[0]] += 1

    exact = [op for op in ops if op < exact_ops]

    def exact_mean(table) -> float:
        return sum(table.get(op, 0) for op in exact) / max(len(exact), 1)

    metrics = {}
    for metric, name in TIMES.items():
        metrics[metric] = (statistics.median(self_ms[name].get(op, 0.0) for op in ops)
                           if ops else 0.0, "ms")
    for metric, (name, kind, unit) in COUNTS.items():
        metrics[metric] = (exact_mean((calls if kind == "calls" else counts)[name]), unit)
    queries = exact_mean(counts["attack.queries"])
    rendered = exact_mean(counts["attack.candidates_rendered"])
    metrics["attack.queries"] = (queries, "count")
    metrics["attack.candidates_rendered"] = (rendered, "count")
    metrics["attack.render_useful_ratio"] = (queries / rendered if rendered else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (float(errors[layer]), "count")

    pairs = [tr / un for tr, un in zip(traced_ms, untraced_ms)]
    metrics["trace.op_ms.p50"] = (statistics.median(traced_ms) if traced_ms else 0.0, "ms")
    metrics["trace.untraced_op_ms.p50"] = (
        statistics.median(untraced_ms) if untraced_ms else 0.0, "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(pairs) - 1.0) if pairs else 0.0, "%")
    metrics["trace.spans_per_op"] = (len(spans) / len(ops) if ops else 0.0, "count")
    return metrics
