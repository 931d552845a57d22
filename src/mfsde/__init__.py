"""Mean-field SDE simulation and measure-derivative calculus toolkit."""

from .calculus import (
    CylindricalFunction,
    l_derivative_fd_oracle,
    l_derivative_pairing,
    make_cylindrical,
    make_inner,
    make_outer,
)
from .dynamics import (
    CoefficientField,
    ParticleFlow,
    StreamedFlow,
    make_coefficients,
    semigroup_apply,
    simulate_mckean_vlasov,
    stream_mckean_vlasov,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContractError,
    DataError,
    EvaluationError,
    MfsdeError,
    SimulationError,
)
from .feynman_kac import (
    McSolution,
    McValueFunction,
    npy_identity_gap,
    pde_residual_exact,
    pde_residual_mc,
)
from .functionals import (
    accumulate,
    build_pair_from_V,
    girsanov_replay,
    verify_path_independence,
)
from .generator import (
    GeneratorValue,
    ItoResidualSummary,
    apply_L_sigma,
    apply_L_sigma_b,
    ito_residual_ensemble,
)
from .measure import (
    EmpiricalMeasure,
    dirac,
    integrate,
    pushforward,
    wasserstein2,
    wasserstein2_bruteforce,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
