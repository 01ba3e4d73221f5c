"""Low-frequency rhythm spectrum analysis of speech.

Demodulates the amplitude and frequency modulation of an utterance, takes
long-term spectra of the modulation envelopes in the rhythm band, picks out
the high-magnitude spectral zones, and compares utterances by spectral
distance, variability indices, and hierarchical clustering.
"""

__version__ = "0.1.0"

from .audio_io import AudioFileError, SignalBuffer, load_wav, resample
from .cluster import Dendrogram, cophenetic_matrix, to_newick, upgma
from .config import AnalysisConfig
from .demodulation import Track, amdf_f0, continuize_f0, envelope_peak_pick, rectify
from .isochrony import (
    AnnotationTier,
    canberra,
    manhattan,
    npvi,
    predict_formant_range,
    rates_from_annotation,
    read_annotation_csv,
    rpvi,
    shifted_subvectors,
    wagner_pairs,
)
from .lts import (
    AEMS,
    AMS,
    DOMAINS,
    FEMS,
    LongTermSpectrum,
    long_term_spectrum,
    normalize_log_detrend,
)
from .pipeline import UtteranceReport, analyze_clip, analyze_signal, profile
from .profiles import RFormantProfile, rhythm_bars, top_n_frequencies, weighted_bins
from .stats import (
    DistanceMatrix,
    correlation_summary,
    distance_matrix,
    mantel,
    pearson_r,
    significance_code,
)

__all__ = [
    "AEMS",
    "AMS",
    "AnalysisConfig",
    "AnnotationTier",
    "AudioFileError",
    "DOMAINS",
    "Dendrogram",
    "DistanceMatrix",
    "FEMS",
    "LongTermSpectrum",
    "RFormantProfile",
    "SignalBuffer",
    "Track",
    "UtteranceReport",
    "__version__",
    "amdf_f0",
    "analyze_clip",
    "analyze_signal",
    "canberra",
    "continuize_f0",
    "cophenetic_matrix",
    "correlation_summary",
    "distance_matrix",
    "envelope_peak_pick",
    "load_wav",
    "long_term_spectrum",
    "manhattan",
    "mantel",
    "normalize_log_detrend",
    "npvi",
    "pearson_r",
    "predict_formant_range",
    "profile",
    "rates_from_annotation",
    "read_annotation_csv",
    "rectify",
    "resample",
    "rhythm_bars",
    "rpvi",
    "shifted_subvectors",
    "significance_code",
    "to_newick",
    "top_n_frequencies",
    "upgma",
    "wagner_pairs",
    "weighted_bins",
]
