"""tinycil: desk-scale class-incremental learning with a micro ViT.

A numpy-backed library: a small reverse-mode tensor core, a micro vision
transformer with patchify or convolutional stems and a cosine classifier,
herding-based exemplar replay, the two-stage incremental training loop, and
the evaluation/diagnostic metrics around it. The `tinycil` CLI drives batch
experiments; see README.md.
"""

from .augment import AugmentConfig, SoftBatch, augment_batch, cutmix, mixup
from .data import (LabeledDataset, ProtocolConfig, StepPlan, build_protocol,
                   generate_synthetic, load_dataset, save_dataset,
                   shuffle_classes)
from .engine import (StepContext, TrainSettings, adaptive_lambda,
                     cross_entropy, distill_loss, margin_ranking_loss,
                     run_balanced_finetune, run_protocol, run_stage1,
                     total_loss)
from .errors import (ConfigError, DataFormatError, ShapeError, TapeError,
                     TrainingDiverged)
from .memory import (BudgetPolicy, ExemplarStore, PerClass, Total,
                     herding_select, load_store, per_class_budget, save_store)
from .metrics import (StepReport, average_incremental_accuracy,
                      confusion_matrix, evaluate, old_to_new_bias_rate,
                      write_reports_jsonl, write_summary_csv)
from .model import (ModelSpec, ModelState, clone_state, cosine_logits,
                    cosine_scores, expand_classifier, forward_features,
                    init_model, load_checkpoint, save_checkpoint, state_hash)
from .optim import AdamW, ParamGroup, lr_at_epoch, scaled_base_lr
from .rng import SplitMix64
from .tensor import Tape, Tensor, backward

__version__ = "0.1.0"
