"""Metric-learning losses with analytic gradients, a small text encoder,
and a cross-validated few-shot benchmark harness."""

from .encoder import (
    EncoderParams,
    classify_logits,
    forward_batch,
    init_encoder,
    load_encoder,
    pack_tokens,
    save_encoder,
    tokenize,
)
from .errors import (
    ConfigError,
    DatasetParseError,
    DegenerateBatchError,
    DegenerateVectorError,
    DimensionError,
    InvalidTripletError,
    LabelError,
    OracleFailureError,
    PairingError,
    ScheduleError,
    StratificationError,
    TrainingDivergedError,
)
from .evaluation import (
    EvalResult,
    blended_scores,
    macro_f1,
    paired_significance,
    predict,
    regularized_incomplete_beta,
)
from .gradcheck import CheckResult, compare_gradients, run_gradcheck
from .harness import (
    Dataset,
    FoldPlan,
    GridResult,
    desk_grid,
    full_grid,
    load_dataset,
    make_fold_plans,
    render_csv,
    render_table,
    result_to_report,
    run_grid,
    save_dataset,
    synth_dataset,
)
from .losses import (
    EmbeddingBatch,
    LossConfig,
    LossOutput,
    cce_loss,
    combined_loss,
    dml_loss,
    mine_triplets,
    npairs_loss,
    proxyanchor_loss,
    proxynca_loss,
    select_npairs_pairs,
    softtriple_loss,
    supcon_loss,
    triplet_loss,
)
from .numeric import (
    Rng,
    derive_seed,
    fd_gradient,
    fnv1a_64,
    l2_normalize_rows,
    sigmoid,
    softmax_rows,
    softplus,
)
from .proxies import ProxyBank, init_proxies, load_proxies, save_proxies
from .trainer import AdamW, TrainConfig, TrainedModel, lr_schedule, train

__version__ = "0.1.0"
