"""The closed-form oracles of ``formulas`` against each other and against
known exact values."""

import pytest

from formulas import gim1_mean_wait, mg1_mean_wait, mmc_mean_wait
from jswsim.processes import Deterministic, Exponential, Hyperexponential, Uniform


@pytest.mark.parametrize("arrival_rate, service_rate", [(0.5, 1.0), (0.9, 1.0), (2.0, 2.5), (0.1, 7.0)])
def test_both_are_mm1_at_exponential_laws(arrival_rate, service_rate):
    exact = mmc_mean_wait(1, arrival_rate, service_rate)
    assert mg1_mean_wait(Exponential(service_rate), arrival_rate) == pytest.approx(exact, rel=1e-12)
    assert gim1_mean_wait(Exponential(arrival_rate), service_rate) == pytest.approx(exact, rel=1e-12)


# load 0.9 at one server and arrival rate 1: the exact means of the
# heavy-traffic probes, M/D/1, M/H2/1, M/U/1 and D/M/1
@pytest.mark.parametrize(
    "wait, exact",
    [
        (lambda: mg1_mean_wait(Deterministic(0.9), 1.0), 4.05),
        (lambda: mg1_mean_wait(Hyperexponential((0.5, 0.5), (1 / 0.3, 1 / 1.5)), 1.0), 11.7),
        (lambda: mg1_mean_wait(Uniform(0.0, 1.8), 1.0), 5.4),
        (lambda: gim1_mean_wait(Deterministic(1.0), 1 / 0.9), 3.7608),
    ],
    ids=["M/D/1", "M/H2/1", "M/U/1", "D/M/1"],
)
def test_heavy_traffic_values(wait, exact):
    assert wait() == pytest.approx(exact, abs=5e-5)


def test_load_at_or_past_one_is_refused():
    with pytest.raises(ValueError, match="load"):
        mg1_mean_wait(Deterministic(1.0), 1.0)
    with pytest.raises(ValueError, match="load"):
        gim1_mean_wait(Deterministic(1.0), 0.9)
