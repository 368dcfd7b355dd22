"""Robust binary classification by median-of-means (MOM) risk minimization.

The package trains linear and kernel classifiers by replacing the empirical
mean of the loss with a median-of-means estimate: at every descent step the
dataset is split into K equal blocks, the block whose mean loss is the median
is located, and the gradient step uses that block only.  Outliers land in the
median block very rarely, so corrupted samples stop steering the descent and
can afterwards be ranked by how often they were selected.

All randomness flows through numpy's PCG64 generator
(``numpy.random.default_rng``); any operation seeded with the same 64-bit
integer reproduces its output bit for bit on the same numpy and scipy
builds.  Other builds may round BLAS products differently: every training
Gram of both kernel engines, one scipy BLAS ``dsyrk``, depends on them.  The
logistic function, ``losses.expit``, is computed with numpy's ``exp``, so its
bits follow numpy's build and the CPU's SIMD support.

Importing the package loads numpy alone; ``scipy.linalg`` loads the first
time a kernel method runs.
"""

from momclf.data import (
    Dataset,
    Partition,
    generate_gaussians,
    generate_moons,
    generate_toy,
    load_csv,
    random_equipartition,
    write_csv,
)
from momclf.losses import LossKind, loss_grad_score, loss_value
from momclf.mom import block_means, median_block_index, mom_estimate
from momclf.model import KernelModel, KernelSpec, LinearModel, linear_score
from momclf.optim import (
    METHODS,
    FastKlrConfig,
    MomGdConfig,
    StepSchedule,
    TrainTrace,
    fast_klr_mom_train,
    klr_mom_train,
    median_block_gradient_check,
    mom_gd_train,
    mom_objective,
    train,
)
from momclf.outlier import (
    SelectionCounts,
    detection_metrics,
    flag_outliers,
    selection_counts,
)

__version__ = "0.1.0"
