"""The seed-101 batches of both benchmark workloads, run in this process by
the benchmark's own worker.  Every check must pass its verdict, and the
digest over all reports is pinned, so a change to any report byte fails
here and not only in a benchmark run."""

import hashlib

import pytest

from conftest import perfbench_module
from ctxlab import cli

# sha256 of the joined per-check digests, as ``perfbench/run.py`` prints it
SEED_101_DIGESTS = {
    "ks-carrier": "e0def9444b7b43cf7c36e9a25eb26da9332ae4d150d2751b8d8cc03a00a154cc",
    "net-fock": "b5c7835b38d5f7117bc97222ea1eb4b66ecf2d3de76fbb491405df35ee944f2f",
}

pytestmark = pytest.mark.usefixtures("repository_root")


@pytest.mark.parametrize("workload", sorted(SEED_101_DIGESTS))
def test_seed_101_reports_are_pinned(workload, tmp_path):
    batch = perfbench_module("workloads").build(workload, 101, "full", str(tmp_path))
    phase = perfbench_module("worker").run_pass(cli, batch)
    assert phase["attempted"] == len(batch) == 44
    assert phase["failures"] == []
    assert hashlib.sha256("".join(phase["digests"]).encode()).hexdigest() == SEED_101_DIGESTS[workload]


@pytest.fixture(scope="module")
def ks_carrier_101(tmp_path_factory, repository_root):
    return perfbench_module("workloads").build("ks-carrier", 101, "full", str(tmp_path_factory.mktemp("inputs")))


@pytest.mark.parametrize("name", ["ext:state05/3", "ext:state00/5"])
def test_state_extend_reports_do_not_depend_on_the_seed(name, ks_carrier_101, capsys):
    """Two reports of the seed-101 batch whose weights once moved in the
    14th decimal with ``--seed``: the split draws from one fixed stream, so
    every seed gives the same bytes."""
    argv = next(check["argv"] for check in ks_carrier_101 if check["name"] == name)
    reports = set()
    for seed in ("0", "5", "101", "12345"):
        assert cli.main(["--seed", seed, *argv]) == 0
        reports.add(capsys.readouterr().out)
    assert len(reports) == 1
