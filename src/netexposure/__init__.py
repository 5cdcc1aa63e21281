"""Expected counterparty credit exposure of financial networks.

Markets are class-labelled (di)graphs whose links carry i.i.d. symmetric
position values. Netting conventions partition each participant's links
into netting sets; the expected exposure of a set comes out of its
characteristic function through a Hilbert-transform closed form, and every
analytic value can be cross-checked against a seeded Monte Carlo oracle.
"""

from .advantage import (
    AdvantageReport,
    ccp_advantage,
    complete_graph_advantage,
    laplace_expected,
    min_participants_table,
    normal_complete_threshold,
)
from .charfn import (
    CharFn,
    Distribution,
    Exponential,
    Gamma,
    LaplaceSym,
    NormalSym,
    UniformSym,
    cf_mean,
    cf_product,
    charfn_of,
    sample,
)
from .exposure import (
    ExposureReport,
    SetExposure,
    eulerian_shortcut,
    exact_exposure,
    expected_bilateral_market,
    expected_exposure,
    expected_market,
    expected_multilateral_market,
    exposure_cf,
    netting_set_cf,
)
from .transforms import (
    HilbertResult,
    dawson,
    hilbert_deriv_at_zero,
    hilbert_eval,
    hilbert_gaussian,
    hilbert_one_sided,
    hilbert_rational,
    neg_abs_cf,
    pos_abs_cf,
)
from .io import MarketFile, ParseError, parse_market, serialize_market
from .market import (
    Bilateral,
    Custom,
    DegreeProfile,
    Link,
    Market,
    MarketError,
    Multilateral,
    NettingSet,
    current_bilateral_risk,
    current_multilateral_risk,
    degree_profile,
    enumerate_orientations,
    is_eulerian,
    netting_sets,
    validate_market,
)
from .mc import MCEstimate, mc_expected_exposure, mc_market_totals

__version__ = "0.1.0"
