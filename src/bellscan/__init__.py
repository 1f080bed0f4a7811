"""Two-outcome bipartite Bell inequalities: exact tables, facet tests,
relabeling canonicalization, two-qubit violations and robustness thresholds."""

from .core import (
    Behavior,
    BellError,
    BellFunctional,
    CapacityError,
    FunctionalParseError,
    Scenario,
    StructuralError,
    evaluate,
    functional_from_json,
    functional_to_json,
    lift,
    parse_functional,
    serialize_functional,
)
from .catalog import (
    CatalogEntry,
    CatalogKeyError,
    PRIMARY_NAMES,
    SUPPLEMENTARY_NAMES,
    catalog_get,
    catalog_list,
)
from .polytope import (
    FacetReport,
    facet_check,
    local_bound,
    ns_dimension,
)
from .symmetry import (
    Transformation,
    apply_transformation,
    canonical_form,
    canonical_key,
    equivalent,
    random_transformation,
    symmetric_representative,
)
from .quantum import (
    Measurement,
    QuantumResult,
    QubitModel,
    model_behavior,
    projector,
    seesaw_maximize,
)
from .robustness import (
    DetectionModel,
    DetectionResult,
    NoiseResult,
    detected_behavior,
    eta_asymmetric_sweep,
    eta_threshold_asymmetric,
    eta_threshold_symmetric,
    noise_floor,
    noise_threshold,
)
from .search import (
    FacetFinding,
    SearchConfig,
    SearchReport,
    run_search,
)
from .table import ReportRow, compute_row, compute_table

__version__ = "0.1.0"
