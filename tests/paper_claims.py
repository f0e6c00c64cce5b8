"""The paper's qualitative claims, one check per experiment.

Each check takes one experiment's result rows (an ``ExperimentResult``'s
``rows``, or the ``rows`` of its JSON artifact under ``<out>/json/``) and
``fast``, and raises :class:`AssertionError` naming the row that breaks a
claim.  ``fast`` changes one claim only: fig13's "every kernel gains from
4 to 16 nodes", from which class A (fast) exempts the latency-bound CG and
IS and class B (full) exempts IS, the deviation EXPERIMENTS.md records.

The tier-1 suite runs the checks on fast rows (``tests/test_experiments.py``).
The paper-scale rows are checked from the artifacts of a full campaign:

    repro run all --full --jobs 4 --no-cache --out /tmp/full
    python tests/paper_claims.py /tmp/full/json/*.json

The script fails unless every experiment below has an artifact and every
artifact keeps its claims.  It needs neither pytest nor numpy.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from pathlib import Path

from repro.units import KB, MB


def _by(rows: list[dict], key: str) -> dict:
    return {row[key]: row for row in rows}


def _at(rows: list[dict], nbytes: int) -> dict:
    return next(row for row in rows if row["nbytes"] == nbytes)


def _stacks(row: dict) -> dict:
    return {label: bw for label, bw in row.items() if label != "nbytes"}


# --- static tables ----------------------------------------------------------
def table1(rows, fast):
    # the paper lists all six implementations
    assert len(rows) == 6, rows
    assert "GridMPI" in {row["implementation"] for row in rows}, rows


def table3(rows, fast):
    by_field = _by(rows, "field")
    assert "Opteron 248" in by_field["Processor"]["rennes"], by_field["Processor"]
    for site in ("rennes", "nancy"):
        assert by_field["Kernel"][site] == "2.6.18", by_field["Kernel"]
        assert by_field["TCP version"][site] == "BIC + Sack", by_field["TCP version"]


# --- measured tables --------------------------------------------------------
def table2(rows, fast):
    by_bench = _by(rows, "bench")
    for bench, kind in (
        ("ep", "P. to P."), ("lu", "P. to P."), ("is", "Collective"), ("ft", "Collective")
    ):
        assert by_bench[bench]["type"] == kind, by_bench[bench]
    # LU: ~1 kB point-to-point messages, the paper's signature
    lu = by_bench["lu"]
    assert any(500 <= size <= 1500 for size, _ in lu["dominant_sizes"]), lu


def table4(rows, fast):
    for row in rows:
        assert abs(row["cluster_us"] - row["paper_cluster_us"]) <= 2, row
        assert abs(row["grid_us"] - row["paper_grid_us"]) <= 3, row


def table5(rows, fast):
    by_impl = _by(rows, "implementation")
    # GridMPI never switches to rendezvous
    assert by_impl["gridmpi"]["measured_cluster"] is None, by_impl["gridmpi"]
    assert by_impl["gridmpi"]["measured_grid"] is None, by_impl["gridmpi"]
    assert by_impl["mpich2"]["measured_grid"] == 65 * MB, by_impl["mpich2"]
    assert by_impl["openmpi"]["measured_grid"] == 32 * MB, by_impl["openmpi"]


# --- pingpong figures -------------------------------------------------------
def fig3(rows, fast):
    for row in rows:
        # The paper: nothing above 120 Mbps.  The fluid model shows a short
        # burst hump where the message size crosses the default buffer size
        # (~128-256 kB, a single line-rate burst); allow it but require the
        # collapse everywhere else.
        limit = 170 if 64 * KB <= row["nbytes"] <= 256 * KB else 130
        assert all(bw <= limit for bw in _stacks(row).values()), row


def fig5(rows, fast):
    # every stack reaches the ~940 Mbps cluster goodput
    big = _at(rows, 64 * MB)
    assert all(800 <= bw <= 945 for bw in _stacks(big).values()), big


def fig6(rows, fast):
    # TCP and GridMPI reach ~900; the rendezvous-bound stacks lag at 64 MB
    # (their threshold is still the default).
    big = _at(rows, 64 * MB)
    assert big["TCP"] >= 850, big
    assert big["GridMPI"] >= 800, big
    # the threshold dip: at 256 kB Madeleine (128 kB threshold) already pays
    # the WAN rendezvous, GridMPI (threshold ∞) does not
    dip = _at(rows, 256 * KB)
    assert dip["GridMPI"] > 1.5 * dip["MPICH-Madeleine"], dip


def fig7(rows, fast):
    big = _at(rows, 64 * MB)
    assert all(bw >= 700 for bw in _stacks(big).values()), big
    # OpenMPI is the slowest of the four at 64 MB (its big-message deficit)
    impls = {label: bw for label, bw in _stacks(big).items() if label != "TCP"}
    assert min(impls, key=impls.get) == "OpenMPI", big


def fig9(rows, fast):
    by_stack = _by(rows, "stack")
    assert 500 <= by_stack["TCP"]["peak_mbps"] <= 640, by_stack["TCP"]  # ~570 ceiling
    # paced GridMPI reaches 500 Mbps before the unpaced stacks
    t500 = {stack: row["t500_s"] for stack, row in by_stack.items()}
    # At fast scale the unpaced stacks never reach 500 Mbps (inf), so the
    # comparisons below hold only if TCP and GridMPI really do.
    assert math.isfinite(t500["TCP"]), t500
    assert math.isfinite(t500["GridMPI"]), t500
    assert t500["GridMPI"] < t500["MPICH2"], t500
    assert t500["GridMPI"] <= t500["OpenMPI"], t500


# --- NPB figures ------------------------------------------------------------
def fig10(rows, fast):
    by_bench = _by(rows, "bench")
    # GridMPI's collective optimisations win FT and IS
    assert by_bench["ft"]["gridmpi"] > 1.3, by_bench["ft"]
    assert by_bench["is"]["gridmpi"] > 1.0, by_bench["is"]
    # MPICH2 is the best on LU: nobody beats the reference clearly
    assert by_bench["lu"]["gridmpi"] <= 1.1, by_bench["lu"]
    assert by_bench["lu"]["madeleine"] < 1.0, by_bench["lu"]
    # MPICH-Madeleine cannot finish BT and SP on the grid (§4.3)
    assert by_bench["bt"]["madeleine"] == 0.0, by_bench["bt"]
    assert by_bench["sp"]["madeleine"] == 0.0, by_bench["sp"]


def fig11(rows, fast):
    # fig10's ordering at the 2+2 scale
    by_bench = _by(rows, "bench")
    assert by_bench["ft"]["gridmpi"] >= 1.0, by_bench["ft"]
    assert by_bench["bt"]["madeleine"] == 0.0, by_bench["bt"]


def fig12(rows, fast):
    by_bench = _by(rows, "bench")
    # EP barely notices the WAN; the small-message CG and MG suffer most
    assert by_bench["ep"]["gridmpi"] > 0.8, by_bench["ep"]
    assert by_bench["cg"]["gridmpi"] < 0.6, by_bench["cg"]
    assert by_bench["mg"]["gridmpi"] < 0.75, by_bench["mg"]
    # big-message LU holds up much better than CG
    assert by_bench["lu"]["mpich2"] > by_bench["cg"]["mpich2"], by_bench


def fig13(rows, fast):
    by_bench = _by(rows, "bench")
    # The paper's case for grids: every kernel gains from 4 cluster nodes
    # to 8+8 grid nodes, except the latency-bound IS (and CG at class A).
    exempt = {"cg", "is"} if fast else {"is"}
    for bench, row in by_bench.items():
        if bench not in exempt:
            assert row["gridmpi"] > 1.0, row
    # LU close to the ideal 4, CG far from it
    assert by_bench["lu"]["gridmpi"] > 2.0, by_bench["lu"]
    assert by_bench["cg"]["gridmpi"] < by_bench["lu"]["gridmpi"], by_bench


# --- ray2mesh tables --------------------------------------------------------
def table6(rows, fast):
    by_cluster = _by(rows, "cluster")
    # Sophia's faster Opterons compute the most rays and Nancy's the fewest,
    # whichever cluster hosts the master.  At fast scale Nancy ties Rennes
    # and Toulouse (3,000 rays each), so only the paper-scale run tells
    # them apart.
    for master in ("nancy", "rennes", "sophia", "toulouse"):
        rays = {cluster: row[f"master_{master}"] for cluster, row in by_cluster.items()}
        others = [count for cluster, count in rays.items() if cluster != "sophia"]
        assert rays["sophia"] > max(others), (master, rays)
        assert rays["nancy"] == min(rays.values()), (master, rays)


def table7(rows, fast):
    # master placement does not matter
    for column in ("total_s", "comp_s"):
        values = [row[column] for row in rows]
        assert max(values) / min(values) < 1.05, (column, values)


#: experiment id -> its check, ``check(rows, fast)``
CLAIMS = {
    check.__name__: check
    for check in (
        table1, table2, table3, table4, table5, table6, table7,
        fig3, fig5, fig6, fig7, fig9, fig10, fig11, fig12, fig13,
    )
}


def main(paths: list[str]) -> int:
    """Check the JSON artifacts at ``paths``; 0 only if all claims hold."""
    if not __debug__:
        print("the claims are assert statements, which -O strips: run without -O")
        return 2
    failed, checked = [], set()
    for path in paths:
        artifact = json.loads(Path(path).read_text(encoding="utf-8"))
        experiment_id = artifact["experiment_id"]
        if experiment_id not in CLAIMS:
            continue
        checked.add(experiment_id)
        scale = "fast" if artifact["fast"] else "full"
        try:
            CLAIMS[experiment_id](artifact["rows"], artifact["fast"])
        except Exception as exc:  # a missing row breaks the claim too
            where = traceback.extract_tb(exc.__traceback__)[-1].line
            print(f"FAIL {experiment_id} ({scale}): {where}\n     {type(exc).__name__}: {exc}")
            failed.append(experiment_id)
        else:
            print(f"ok   {experiment_id} ({scale})")
    missing = sorted(set(CLAIMS) - checked)
    if missing:
        print(f"no artifact for: {', '.join(missing)}")
    print(f"{len(checked) - len(failed)}/{len(CLAIMS)} experiments keep the paper's claims")
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
