"""String-keyed table of the estimator backends.

The one place that maps method names to adapter classes::

    from repro.api import registry
    estimator = registry.get("lia", reduction_strategy="gap")
    registry.available()            # ("clink", "delay", "lia", "scfs", "tomo")

The table is fixed: the CLI (``repro infer --method`` / ``repro
compare``) and :class:`~repro.api.scenario.Scenario` dispatch
exclusively through here.  An estimator outside it is used directly
through the :class:`~repro.api.estimator.Estimator` protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.api.adapters import (
    CLINKEstimator,
    DelayEstimator,
    LIAEstimator,
    SCFSEstimator,
    TomoEstimator,
)
from repro.api.estimator import Estimator, EstimatorSpec

_REGISTRY: Dict[str, Callable[..., Estimator]] = {
    LIAEstimator.name: LIAEstimator,
    DelayEstimator.name: DelayEstimator,
    SCFSEstimator.name: SCFSEstimator,
    CLINKEstimator.name: CLINKEstimator,
    TomoEstimator.name: TomoEstimator,
}


def available() -> Tuple[str, ...]:
    """Method names, sorted."""
    return tuple(sorted(_REGISTRY))


def get(name: str, **params) -> Estimator:
    """Build a fresh estimator for *name* with the given parameters."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; registered: {', '.join(available())}"
        ) from None
    return factory(**params)


def from_spec(spec) -> Estimator:
    """Build an estimator from an :class:`EstimatorSpec` or its dict form."""
    if not isinstance(spec, EstimatorSpec):
        spec = EstimatorSpec.from_dict(spec)
    return get(spec.method, **spec.params)
