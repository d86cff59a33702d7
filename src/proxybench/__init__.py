"""proxybench: build reduced proxy datasets and measure how well
hyperparameter search results on them predict results on the full task."""

from .dataset import Dataset, SynthSpec, load_csv, split, subset_by_ids, synth_generate
from .difficulty import DifficultyTable, load_table, quantile_slice, save_table, score_examples
from .metrics import (
    GoodConfigRule,
    PairedAccuracies,
    QualityReport,
    build_quality_reports,
    consistency_correlation,
    cost_adjusted_quality,
    epoch_correlation,
    lasso_cv,
    pair_accuracies,
    r2_no_intercept,
    select_good_configs,
    spearman,
    zscore,
)
from .orchestrator import GridSpec, ResultStore, generate_grid, run_matrix, store_load
from .proxy import ProxyManifest, ProxySpec, build_proxy, load_manifest, save_manifest
from .trainer import (
    HyperparamConfig,
    ModelParams,
    RunRecord,
    config_id,
    train_model,
)

__version__ = "0.1.0"
