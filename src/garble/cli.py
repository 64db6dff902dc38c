"""Command-line front end.

Exit codes: 0 success, 1 operational failure (attack rejected/exhausted,
backend unreachable), 2 usage/parameter errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attack import (BackendError, ExhaustionReport, MockOracle, RemoteTranscriber,
                     generic_attack, load_remote_config, DEFAULT_QUERY_BUDGET)
from .audio_io import AudioBuffer, WavFormatError, canonicalize, read_wav, write_wav
from .channel import resolve_channel, simulate
from .features import (FeatureConfig, extract_features, feature_distance,
                       max_window_magnitude_diff, spectrum)
from .perturb import (ParamGrid, PerturbationParams, apply_params, expand_grid,
                      tdi_probe_schedule)
from .vad import detect_speech, format_regions

DEFAULT_SEED = 42


def _load(path: str) -> AudioBuffer:
    return canonicalize(read_wav(Path(path).read_bytes()))


def _save(path: str, audio: AudioBuffer):
    Path(path).write_bytes(write_wav(audio))


def parse_float_range(text: str) -> tuple[float, ...]:
    """"A:B:STEP" -> inclusive endpoints; "1.0:3.0:0.5" gives 5 values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be A:B:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("range STEP must be positive")
    if stop < start:
        raise ValueError("range end before start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def parse_hfa(text: str) -> tuple[tuple[float, float], ...]:
    """"F:A[,F:A...]" -> ((freq_hz, amplitude), ...)"""
    out = []
    for chunk in text.split(","):
        fa = chunk.split(":")
        if len(fa) != 2:
            raise ValueError(f"hfa component must be FREQ:AMP, got {chunk!r}")
        out.append((float(fa[0]), float(fa[1])))
    return tuple(out)


def format_manifest_line(filename: str, params: PerturbationParams) -> str:
    """filename<TAB>key=value... - parses back losslessly (repr floats)."""
    parts = [filename]
    if params.tdi_window_ms is not None:
        parts.append(f"tdi_ms={params.tdi_window_ms!r}")
    if params.rpg_window_ms is not None:
        parts.append(f"rpg_ms={params.rpg_window_ms!r}")
        parts.append(f"rpg_seed={params.rpg_seed}")
    if params.hfa_components:
        comps = ",".join(f"{f!r}:{a!r}" for f, a in params.hfa_components)
        parts.append(f"hfa={comps}")
    if params.ts_factor_percent is not None:
        parts.append(f"ts={params.ts_factor_percent!r}")
    return "\t".join(parts)


def parse_manifest_line(line: str) -> tuple[str, PerturbationParams]:
    fields = line.rstrip("\n").split("\t")
    filename = fields[0]
    kwargs: dict = {}
    for field in fields[1:]:
        key, _, value = field.partition("=")
        if key == "tdi_ms":
            kwargs["tdi_window_ms"] = float(value)
        elif key == "rpg_ms":
            kwargs["rpg_window_ms"] = float(value)
        elif key == "rpg_seed":
            kwargs["rpg_seed"] = int(value)
        elif key == "hfa":
            kwargs["hfa_components"] = parse_hfa(value)
        elif key == "ts":
            kwargs["ts_factor_percent"] = float(value)
        else:
            raise ValueError(f"unknown manifest key {key!r}")
    return filename, PerturbationParams(**kwargs)


def _feature_config(args) -> FeatureConfig:
    return FeatureConfig(
        frame_ms=args.frame_ms, hop_ms=args.hop_ms,
        analysis_window="rectangular" if args.rectangular else "hamming",
        n_filters=args.n_filters, n_coefficients=args.n_coeffs,
        include_dct=not args.mfsc, use_power=not args.magnitude,
        pre_emphasis=args.pre_emphasis)


def cmd_perturb(args) -> int:
    audio = _load(args.input)
    params = PerturbationParams(
        tdi_window_ms=args.tdi_ms, rpg_window_ms=args.rpg_ms, rpg_seed=args.seed,
        hfa_components=parse_hfa(args.hfa) if args.hfa else (),
        ts_factor_percent=args.ts)
    _save(args.output, apply_params(audio, params))
    return 0


def cmd_sweep(args) -> int:
    audio = _load(args.input)
    grid = ParamGrid(
        tdi_window_ms=parse_float_range(args.tdi_ms_range) if args.tdi_ms_range else (None,),
        rpg_window_ms=parse_float_range(args.rpg_ms_range) if args.rpg_ms_range else (None,),
        hfa_components=(parse_hfa(args.hfa),) if args.hfa else ((),),
        ts_factor_percent=parse_float_range(args.ts_range) if args.ts_range else (None,),
        rpg_seed=args.seed)
    points = expand_grid(grid)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    lines = []
    for i, params in enumerate(points):
        name = f"{stem}_{i:04d}.wav"
        (outdir / name).write_bytes(write_wav(apply_params(audio, params)))
        lines.append(format_manifest_line(name, params))
    (outdir / "manifest.tsv").write_text("".join(line + "\n" for line in lines),
                                         encoding="utf-8")
    print(f"wrote {len(points)} files to {outdir}")
    return 0


def cmd_features(args) -> int:
    matrix = extract_features(_load(args.input), _feature_config(args))
    sys.stdout.write(matrix.to_text())
    return 0


def cmd_compare(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    d = feature_distance(extract_features(a), extract_features(b))
    worst = max_window_magnitude_diff(a, b, args.window_ms)
    print(f"feature_distance={d!r}")
    print(f"max_window_magnitude_rel_diff={worst!r}")
    return 0


def cmd_vad(args) -> int:
    sys.stdout.write(format_regions(detect_speech(_load(args.input))))
    return 0


def cmd_simulate(args) -> int:
    config = resolve_channel(args.channel)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out, scale = simulate(_load(args.input), config)
    if scale != 1.0:
        print(f"renormalized by {scale!r}", file=sys.stderr)
    _save(args.output, out)
    return 0


def cmd_attack(args) -> int:
    audio = _load(args.input)
    schedule = tdi_probe_schedule(args.start_ms, args.step_ms, args.count,
                                  rpg_seed=args.seed)
    spec = args.backend
    if spec.startswith("mock:"):
        rest = spec[len("mock:"):]
        ref_path, _, threshold = rest.rpartition(":")
        if not ref_path:
            raise ValueError("mock backend spec is mock:REFERENCE.wav:THRESHOLD")
        budget = DEFAULT_QUERY_BUDGET if args.budget is None else args.budget
        backend = MockOracle(_load(ref_path), args.target_phrase,
                             float(threshold), budget=budget)
    elif spec.startswith("remote:"):
        config = load_remote_config(spec[len("remote:"):])
        if args.budget is not None:
            config = replace(config, budget=args.budget)
        backend = RemoteTranscriber(config, args.target_phrase)
    else:
        raise ValueError("backend must be mock:REF.wav:THRESHOLD or remote:CONFIG.json")

    result = generic_attack(audio, backend, schedule)
    if isinstance(result, ExhaustionReport):
        print(f"no candidate accepted (queries={result.queries_used})",
              file=sys.stderr)
        return 1
    out_path = args.out or str(Path(args.input).with_suffix(".attack.wav"))
    _save(out_path, result.audio)
    print(f"{out_path}\tqueries={result.verdict.query_index}")
    return 0


def cmd_spectrogram(args) -> int:
    audio = _load(args.input)
    spec = spectrum(audio, FeatureConfig(frame_ms=args.frame_ms, hop_ms=args.hop_ms,
                                         use_power=False))
    db = 20.0 * np.log10(np.maximum(spec, 1e-10))
    top = float(np.max(db))
    span = 80.0  # dB of dynamic range in the image
    pixels = np.clip(np.round(255.0 * (db - (top - span)) / span), 0, 255)
    image = pixels.astype(np.uint8).T[::-1]  # rows: high freq at top
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(args.output).write_bytes(header + image.tobytes())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garble",
        description="Perturb voice-command audio so machines still transcribe "
                    "it while humans hear noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", help="apply one perturbation point")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--tdi-ms", type=float, default=None)
    p.add_argument("--rpg-ms", type=float, default=None)
    p.add_argument("--hfa", default=None, help="F:A[,F:A...] added sine components")
    p.add_argument("--ts", type=float, default=None, help="time-scale factor percent")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("sweep", help="write a parameter-grid batch plus manifest")
    p.add_argument("input")
    p.add_argument("outdir")
    p.add_argument("--tdi-ms-range", default=None, metavar="A:B:STEP")
    p.add_argument("--rpg-ms-range", default=None, metavar="A:B:STEP")
    p.add_argument("--ts-range", default=None, metavar="A:B:STEP")
    p.add_argument("--hfa", default=None, help="fixed F:A[,F:A...] for every point")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("features", help="print the feature matrix as text")
    p.add_argument("input")
    p.add_argument("--mfsc", action="store_true", help="log filterbank energies, no DCT")
    p.add_argument("--frame-ms", type=float, default=20.0)
    p.add_argument("--hop-ms", type=float, default=10.0)
    p.add_argument("--rectangular", action="store_true")
    p.add_argument("--n-filters", type=int, default=26)
    p.add_argument("--n-coeffs", type=int, default=13)
    p.add_argument("--magnitude", action="store_true",
                   help="magnitude spectrum instead of power")
    p.add_argument("--pre-emphasis", type=float, default=0.0)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("compare", help="feature distance and per-window spectrum diff")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--window-ms", type=float, default=20.0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("vad", help="print detected speech regions")
    p.add_argument("input")
    p.set_defaults(func=cmd_vad)

    p = sub.add_parser("simulate", help="run audio through a channel model")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--channel", required=True, help="preset name or config path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the channel noise seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="search the probe schedule against a backend")
    p.add_argument("input")
    p.add_argument("--target-phrase", required=True)
    p.add_argument("--backend", required=True,
                   help="mock:REF.wav:THRESHOLD or remote:CONFIG.json")
    p.add_argument("--budget", type=int, default=None,
                   help=f"query cap (default {DEFAULT_QUERY_BUDGET}, or the "
                        "remote config's budget)")
    p.add_argument("--out", default=None, help="where to write the winning audio")
    p.add_argument("--start-ms", type=float, default=1.0)
    p.add_argument("--step-ms", type=float, default=0.5)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("spectrogram", help="write a log-magnitude PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--frame-ms", type=float, default=20.0)
    p.add_argument("--hop-ms", type=float, default=10.0)
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 1
    except (WavFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
