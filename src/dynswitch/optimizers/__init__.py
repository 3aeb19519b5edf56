from .bfgs import Bfgs
from .cmaes import Cmaes
from .de import De
from .driver import (
    ALGORITHMS,
    OptimizerConfig,
    canonical_algorithm,
    drive,
    make_optimizer,
    run_single,
)
from .mlsl import Mlsl
from .pso import Pso

__all__ = [
    "ALGORITHMS",
    "Bfgs",
    "Cmaes",
    "De",
    "Mlsl",
    "OptimizerConfig",
    "Pso",
    "canonical_algorithm",
    "drive",
    "make_optimizer",
    "run_single",
]
