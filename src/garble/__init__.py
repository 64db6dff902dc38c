"""garble: perturb voice-command audio so speech recognizers still accept it
while human listeners hear noise."""

from .audio_io import (AudioBuffer, CANONICAL_RATE, UnsupportedCodecError,
                       WavFormatError, canonicalize, read_wav, resample, write_wav)
from .dsp import frames, low_pass, measure_snr
from .features import (FeatureConfig, FeatureMatrix, extract_features,
                       feature_distance, hz_to_mel, mel_filterbank, mel_to_hz)
from .perturb import (ParamGrid, PerturbationChain, PerturbationParams,
                      apply_chain, apply_params, expand_grid, hfa, rpg, tdi,
                      tdi_probe_schedule, ts, window_ms_to_samples)
from .vad import SpeechRegion, detect_speech
from .channel import ChannelConfig, PRESETS, simulate
from .attack import (AttackCandidate, BackendError, BudgetExceededError,
                     DEFAULT_QUERY_BUDGET, ExhaustionReport, MockOracle,
                     RemoteConfig, RemoteTranscriber, TranscriberBackend,
                     TranscriberVerdict, calibrate_mock_threshold,
                     generic_attack, improved_attack, mock_oracle,
                     phrase_matches, rank_by_distortion, remote_transcriber)

__version__ = "0.1.0"
