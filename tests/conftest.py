import numpy as np
import pytest

from preyswitch import (
    IntegratorConfig,
    coarse_mu_curve,
    find_shilnikov,
    focus_condition_holds,
    validate_parameters,
)
from preyswitch import flow as flow_mod

# Baseline rates for the numerical experiments (decimal points).
TABLE1 = dict(m=0.790, r1=0.836, e=0.948, q1=0.772, a_q=0.660, q2=1.084, beta2=0.896, r2=0.126)


@pytest.fixture(scope="session")
def table1():
    return validate_parameters(beta1=0.994, **TABLE1)


@pytest.fixture(scope="session")
def table1_b10():
    return validate_parameters(beta1=10.0, **TABLE1)


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


@pytest.fixture(scope="session")
def coarse_curve(table1, cfg):
    """Table 1's coarse fold-return curve, shared by every beta1 and beta2."""
    return coarse_mu_curve(table1, cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture(scope="session")
def connection(table1, cfg):
    """The certified connection over beta1 in (0.994, 10), with its wall time."""
    import time

    t0 = time.perf_counter()
    cert = find_shilnikov(table1, (0.994, 10.0), cfg)
    elapsed = time.perf_counter() - t0
    return cert, elapsed


def draw_params(rng, require_focus=False, max_tries=2000):
    """Rejection-sample an admissible parameter set with b_q > 0 and q1 > 0."""
    for _ in range(max_tries):
        r2 = rng.uniform(0.05, 0.8)
        r1 = r2 + rng.uniform(0.05, 1.2)
        a_q = rng.uniform(0.2, 2.0)
        q1 = rng.uniform(0.05, 1.5)
        q2 = a_q * q1 + rng.uniform(0.01, 1.5)
        beta1 = rng.uniform(0.2, 8.0)
        beta2 = rng.uniform(0.2, 8.0)
        e = rng.uniform(0.2, 2.0)
        m = float(np.exp(rng.uniform(np.log(0.05), np.log(60.0))))
        p = validate_parameters(
            r1=r1, r2=r2, a_q=a_q, q1=q1, q2=q2, beta1=beta1, beta2=beta2, m=m, e=e
        )
        if require_focus and not focus_condition_holds(p):
            continue
        return p
    raise RuntimeError("parameter sampler failed to find an admissible draw")


def taylor_runs(monkeypatch):
    """The list of every call of flow's Taylor loop from now on, each as its
    arcs, one a lane, also those whose caller then raises (a tangential
    return)."""
    runs = []
    taylor_lanes = flow_mod._taylor_lanes

    def recorded(*args, **kwargs):
        runs.append(taylor_lanes(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(flow_mod, "_taylor_lanes", recorded)
    return runs


def rounds(runs):
    """The lockstep rounds of recorded calls: each call runs as many rounds as
    its slowest lane takes steps."""
    return sum(max(arc.steps for arc in run) for run in runs)
