"""fedsim: federated-learning orchestration with a deterministic simulator."""

__version__ = "0.1.0"

from .nn import ModelSpec, ParameterSet, init_parameters  # noqa: F401
from .data import Dataset, FederatedSplit  # noqa: F401
from .controller import FederationController, CommunityModel, UpdateRequest  # noqa: F401
from .config import ExperimentConfig, parse_config  # noqa: F401
from .simulator import MetricsLog, run_simulation_detailed  # noqa: F401
