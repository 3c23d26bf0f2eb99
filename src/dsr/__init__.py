"""Guided depth-video superresolution with motion-adaptive low-rank priors."""

from .errors import DataError, DsrError, NumericError
from .volumes import (
    DepthVolume,
    FrameDims,
    IntensityVolume,
    Measurements,
    SamplingOperator,
    add_noise,
    apply_sampling,
    linear_interpolate,
    mask_fill,
    per_frame_snr,
    snr_db,
)
from .patches import (
    PatchGeometry,
    PatchGroupTable,
    build_groups,
    scatter_sum,
)
from .shrinkage import nu_shrink, prox_low_rank
from .solvers import (
    SolveReport,
    SolverConfig,
    run_pipeline,
    select_lambda,
    solve_admm,
    solve_simplified,
)
from .scenes import ObjectSpec, SceneSpec, default_scene, synth_scene
from .bench import ExperimentGrid, run_bench, sparse_split
from .io import read_dsrv, write_dsrv

__version__ = "0.1.0"
