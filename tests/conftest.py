"""Shared fixtures for the test suite, plus the repro lint gate.

The lint gate (``repro.analysis.pytest_plugin``) is wired in by hook
delegation rather than ``pytest_plugins`` so it works regardless of which
directory pytest treats as rootdir.
"""

import pytest

from repro.analysis import pytest_plugin as _lint_gate
from repro.impls import get_implementation
from repro.net import build_pair_testbed
from repro.tcp import TUNED_SYSCTLS


def pytest_addoption(parser):
    _lint_gate.pytest_addoption(parser)


def pytest_sessionstart(session):
    _lint_gate.pytest_sessionstart(session)


def make_cluster_job(impl_name="mpich2", nprocs=4, tuned=True, impl=None, **kwargs):
    """An MpiJob with all ranks inside the Rennes cluster."""
    from repro.mpi import MpiJob

    net = build_pair_testbed(nodes_per_site=max(nprocs, 2))
    placement = net.clusters["rennes"].nodes[:nprocs]
    impl = impl or get_implementation(impl_name)
    sysctls = TUNED_SYSCTLS if tuned else None
    return MpiJob(net, impl, placement, sysctls=sysctls, **kwargs)


def make_grid_job(impl_name="mpich2", nprocs=4, tuned=True, impl=None, **kwargs):
    """An MpiJob with ranks split evenly between Rennes and Nancy."""
    from repro.mpi import MpiJob

    half = nprocs // 2
    net = build_pair_testbed(nodes_per_site=max(half, 1) + nprocs % 2)
    placement = (
        net.clusters["rennes"].nodes[: half + nprocs % 2]
        + net.clusters["nancy"].nodes[:half]
    )
    impl = impl or get_implementation(impl_name)
    sysctls = TUNED_SYSCTLS if tuned else None
    return MpiJob(net, impl, placement, sysctls=sysctls, **kwargs)


@pytest.fixture()
def cluster_job():
    return make_cluster_job()


@pytest.fixture()
def grid_job():
    return make_grid_job()


@pytest.fixture(scope="session")
def telemetry_run():
    """``(experiment_id, jobs) -> ExperimentRun`` of a fast campaign with
    telemetry on, run once per session: tests asserting different
    properties of the same campaign share its simulation."""
    from repro.obs import TelemetryConfig
    from repro.runner import ExperimentSpec, run_campaign

    runs = {}

    def get(experiment_id, jobs):
        if (experiment_id, jobs) not in runs:
            campaign = run_campaign(
                [ExperimentSpec(experiment_id, fast=True)],
                jobs=jobs,
                telemetry=TelemetryConfig(),
            )
            assert campaign.ok, campaign.summary()
            runs[experiment_id, jobs] = campaign.runs[0]
        return runs[experiment_id, jobs]

    return get
