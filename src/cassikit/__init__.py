"""cassikit: CASSI measurement simulation and unfolded HQS reconstruction.

The package covers the full desk-scale loop: simulate a snapshot spectral
measurement from a truth cube through a coded mask-and-shear operator,
reconstruct with half-quadratic splitting (classical TV plug-and-play or the
learned degradation-estimator + windowed-attention pipeline), train the
learned pipeline on a toy patch, and verify every numerical kernel against
independent oracles via the built-in selftest.
"""

from .cassi import (HsiCube, Mask2D, Measurement, SensingOperator, adjoint_apply,
                    apply_shot_noise, forward_measure, materialize_dense,
                    phi_gram_diag, random_binary_mask, shift_cube, unshift_cube)
from .errors import (CassikitError, DivergenceError, FormatError,
                     GraphStateError, MetricError, MissingParamsError,
                     NumericalError, OperatorError, OracleCapError,
                     ParameterError, ShapeError)
from .hqs import (ReconConfig, ReconResult, TraceRow, data_step, init_estimate,
                  run_hqs, trace_csv)
from .metrics import psnr, sam, ssim
from .params import Initializer, ParamStore
from .phantom import generate_phantom
from .priors import total_variation, tv_denoise
from .selftest import run_selftest
from .tensor import Graph, Tensor, backward, fd_gradcheck, no_grad
from .train import TrainConfig, charbonnier_loss, lr_at, train_overfit
from .transformer import LnltConfig

__version__ = "0.1.0"
