"""Probabilistic AE burst detection, nonparametric count clustering, and
online damage monitoring."""

from .distributions import (
    GammaParams,
    NBParams,
    nb_log_pmf,
    nll,
    predictive_update,
)
from .windowing import (
    ThresholdPolicy,
    Waveform,
    WindowSpec,
    WindowedCounts,
    count_crossings,
    extract_counts,
    resolve_threshold,
)
from .detector import (
    BackgroundModel,
    NllTrace,
    flag_events,
    pick_noise_training,
    score,
    train_background,
)
from .dppmm import (
    ClusterStats,
    FitResult,
    Hyperparams,
    MixtureState,
    UniformStream,
    assignment_log_weights,
    audit,
    fit,
    gibbs_sweep,
    posterior_mean_rate,
    state_from_json_dict,
    state_to_json_dict,
)
from .segmentation import (
    EventRecord,
    SampleProbabilityField,
    WaveformFeatures,
    average_probabilities,
    build_event_records,
    extract_features,
    noise_cluster_id,
    segment_events,
)
from .monitor import (
    AlarmEvent,
    ClusterTrack,
    StreamMonitor,
    decimate,
    entropy,
    information_efficiency,
    observe,
    update_tracks,
)
from .io import HitRecord, read_hits, read_waveform, write_hits, write_waveform
from .synth import (
    BurstAnnotation,
    BurstSpec,
    HitStreamSpec,
    SynthSpec,
    synthesize,
    synthesize_hit_stream,
)
from .config import PipelineConfig

__version__ = "0.1.0"
