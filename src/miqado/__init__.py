"""Liquidation mitigation toolkit: a reversible-call-option support
protocol, fixed-spread liquidation, market plumbing, and a deterministic
scenario engine with stabilization metrics."""

from .core import (
    Amount,
    BorrowingPosition,
    FslOutcome,
    FslParams,
    Price,
    Unit,
    execute_fsl,
    fsl_post_health_factor,
    health_factor,
    is_liquidatable,
)
from .errors import MiqadoError
from .market import (
    CpAmmPool,
    GbmParams,
    PricePath,
    PricePoint,
    amm_swap_base_for_quote,
    direct_price_decline,
    generate_gbm,
    load_price_csv,
    pool_from_price_impact,
    serialize_price_csv,
)
from .option import (
    BsInputs,
    bs_call_price,
    historical_volatility,
    optimal_premium_factor,
    std_normal_cdf,
)
from .protocol import (
    MiqadoParams,
    MiqadoSession,
    SessionState,
    SettlementOutcome,
    can_initiate,
    initiate,
    settle_at_maturity,
    supporter_decision,
    terminate,
)
from .sim import (
    LiquidationEvent,
    MetricsReport,
    PayoffRow,
    Regime,
    Scenario,
    SweepResult,
    load_events_csv,
    run_scenario,
    run_sweep,
    serialize_events_csv,
    synthesize_events,
)

__version__ = "0.1.0"
