"""Numerical correctness of every collective algorithm.

Each algorithm is run with real numpy payloads through the full simulated
stack and checked against the numpy ground truth, across power-of-two and
odd rank counts.
"""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.impls import get_implementation
from repro.mpi import MAX, MIN, PROD, SUM
from repro.mpi.collectives import ALGORITHMS, DEFAULTS, resolve
from tests.conftest import make_cluster_job, make_grid_job


def run_collective(program, nprocs=4, impl_name="mpich2", algo=None, grid=False):
    impl = get_implementation(impl_name)
    if algo:
        operation, name = algo
        impl = impl.with_collective(operation, name)
    maker = make_grid_job if grid else make_cluster_job
    job = maker(nprocs=nprocs, impl=impl)
    return job.run(program)


# --- bcast ---------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS["bcast"]))
@pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
def test_bcast_algorithms(algo, nprocs):
    root = min(1, nprocs - 1)
    data = np.arange(20000, dtype=np.float64)

    def program(ctx):
        payload = data.copy() if ctx.rank == root else None
        result = yield from ctx.comm.bcast(payload, nbytes=data.nbytes, root=root)
        np.testing.assert_array_equal(np.asarray(result).reshape(-1), data)
        return True

    result = run_collective(program, nprocs=nprocs, algo=("bcast", algo), grid=True)
    assert all(result.returns)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["bcast"]))
def test_bcast_opaque_payload(algo):
    def program(ctx):
        payload = {"config": [1, 2, 3]} if ctx.rank == 0 else None
        result = yield from ctx.comm.bcast(payload, nbytes=100 * 1024, root=0)
        assert result == {"config": [1, 2, 3]}
        return True

    result = run_collective(program, nprocs=4, algo=("bcast", algo))
    assert all(result.returns)


def test_bcast_2d_array_shape_preserved():
    data = np.arange(30000, dtype=np.float64).reshape(100, 300)

    def program(ctx):
        payload = data.copy() if ctx.rank == 2 else None
        result = yield from ctx.comm.bcast(payload, nbytes=data.nbytes, root=2)
        assert result.shape == (100, 300)
        np.testing.assert_array_equal(result, data)
        return True

    result = run_collective(program, nprocs=8, algo=("bcast", "van_de_geijn"))
    assert all(result.returns)


# --- reduce / allreduce --------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [2, 4, 7, 8])
def test_reduce_sum(nprocs):
    def program(ctx):
        data = np.full(1000, float(ctx.rank + 1))
        result = yield from ctx.comm.reduce(data, nbytes=data.nbytes, op=SUM, root=0)
        if ctx.rank == 0:
            expected = sum(range(1, nprocs + 1))
            np.testing.assert_allclose(result, expected)
        else:
            assert result is None
        return True

    assert all(run_collective(program, nprocs=nprocs).returns)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["allreduce"]))
@pytest.mark.parametrize("nprocs", [2, 4, 6, 8])
@pytest.mark.parametrize("op,expected_fn", [(SUM, np.sum), (MAX, np.max), (MIN, np.min)])
def test_allreduce_algorithms(algo, nprocs, op, expected_fn):
    n = 30000  # large enough to engage Rabenseifner's segmented path

    def program(ctx):
        rng = np.random.default_rng(100 + ctx.rank)
        data = rng.random(n)
        result = yield from ctx.comm.allreduce(data, nbytes=data.nbytes, op=op)
        all_data = np.stack(
            [np.random.default_rng(100 + r).random(n) for r in range(nprocs)]
        )
        np.testing.assert_allclose(
            np.asarray(result).reshape(-1), expected_fn(all_data, axis=0), rtol=1e-10
        )
        return True

    result = run_collective(program, nprocs=nprocs, algo=("allreduce", algo), grid=True)
    assert all(result.returns)


def test_allreduce_scalar_payload():
    def program(ctx):
        result = yield from ctx.comm.allreduce(float(ctx.rank), nbytes=8, op=SUM)
        assert result == pytest.approx(6.0)  # 0+1+2+3
        return True

    assert all(run_collective(program, nprocs=4).returns)


def test_allreduce_prod():
    def program(ctx):
        result = yield from ctx.comm.allreduce(float(ctx.rank + 1), nbytes=8, op=PROD)
        assert result == pytest.approx(24.0)
        return True

    assert all(run_collective(program, nprocs=4).returns)


# --- allgather -----------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS["allgather"]))
@pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
def test_allgather_algorithms(algo, nprocs):
    def program(ctx):
        data = np.full(100, float(ctx.rank))
        blocks = yield from ctx.comm.allgather(data, nbytes_each=data.nbytes)
        assert len(blocks) == nprocs
        for r, block in enumerate(blocks):
            np.testing.assert_array_equal(block, np.full(100, float(r)))
        return True

    result = run_collective(program, nprocs=nprocs, algo=("allgather", algo))
    assert all(result.returns)


# --- alltoallv ---------------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [3, 4, 8])
def test_alltoallv_sizes(nprocs):
    def program(ctx):
        sizes = [(ctx.rank + 1) * 100 + d for d in range(nprocs)]
        payloads = [(ctx.rank, d) for d in range(nprocs)]
        blocks, recv_sizes = yield from ctx.comm.alltoallv(sizes, payloads)
        assert blocks == [(s, ctx.rank) for s in range(nprocs)]
        assert recv_sizes == [(s + 1) * 100 + ctx.rank for s in range(nprocs)]
        return True

    assert all(run_collective(program, nprocs=nprocs).returns)


def test_alltoallv_wrong_size_count():
    def program(ctx):
        yield from ctx.comm.alltoallv([10, 10])  # nprocs=4

    with pytest.raises(MpiError):
        run_collective(program, nprocs=4)


def test_alltoall_wrong_payload_count():
    def program(ctx):
        yield from ctx.comm.alltoallv([10] * 4, [1, 2])  # nprocs=4

    with pytest.raises(MpiError):
        run_collective(program, nprocs=4)


# --- gather --------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS["gather"]))
@pytest.mark.parametrize("nprocs", [2, 4, 5])
def test_gather_algorithms(algo, nprocs):
    root = nprocs - 1

    def program(ctx):
        blocks = yield from ctx.comm.gather(
            f"item{ctx.rank}", nbytes_each=512, root=root
        )
        if ctx.rank == root:
            assert blocks == [f"item{r}" for r in range(nprocs)]
        else:
            assert blocks is None
        return True

    assert all(run_collective(program, nprocs=nprocs, algo=("gather", algo)).returns)


# --- barrier --------------------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [2, 4, 7])
def test_barrier_synchronises(nprocs):
    def program(ctx):
        # Rank r works r*0.1 s; after the barrier everyone's clock is at
        # least the slowest rank's work time.
        yield from ctx.compute_time(ctx.rank * 0.1)
        yield from ctx.comm.barrier()
        return ctx.wtime()

    result = run_collective(program, nprocs=nprocs)
    slowest = (nprocs - 1) * 0.1
    assert all(t >= slowest for t in result.returns)


# --- dispatch ------------------------------------------------------------------------
def test_unknown_algorithm_rejected():
    with pytest.raises(MpiError):
        resolve("bcast", "teleportation")
    with pytest.raises(MpiError):
        resolve("dance", "binomial")


def test_defaults_cover_all_operations():
    assert set(DEFAULTS) == set(ALGORITHMS)
    for operation, name in DEFAULTS.items():
        assert name in ALGORITHMS[operation]


def test_single_rank_collectives_trivial():
    def program(ctx):
        result = yield from ctx.comm.allreduce(5.0, nbytes=8, op=SUM)
        assert result == 5.0
        value = yield from ctx.comm.bcast("x", nbytes=10, root=0)
        assert value == "x"
        yield from ctx.comm.barrier()
        return True

    assert all(run_collective(program, nprocs=1).returns)


# --- reachability: the registry holds what a rendered result runs -----------------
def test_every_algorithm_is_selected_by_a_result():
    """Each registered algorithm is an engine default, pinned by one of
    the four benchmarked implementations, or measured by ``coll_hier``."""
    from repro.experiments import coll_hier
    from repro.impls import ALL_IMPLEMENTATIONS

    selected = set(DEFAULTS.items())
    for impl in ALL_IMPLEMENTATIONS.values():
        selected |= set(impl.collectives.items())
    for op in coll_hier.OPS:
        selected |= {(op, coll_hier.FLAT[op]), (op, coll_hier.HIERARCHICAL)}
    registered = {(op, name) for op, table in ALGORITHMS.items() for name in table}
    assert sorted(registered - selected) == []


def test_every_communicator_collective_is_called_outside_mpi():
    """Each public ``Communicator`` collective (a method that dispatches
    through ``_algorithm``) is called as ``comm.<name>(...)`` by some
    module of ``repro`` outside ``repro.mpi``."""
    import ast
    from pathlib import Path

    import repro
    import repro.mpi.communicator as communicator

    tree = ast.parse(Path(communicator.__file__).read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Communicator"]
    collectives = {
        method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and any(
            isinstance(node, ast.Attribute) and node.attr == "_algorithm"
            for node in ast.walk(method)
        )
    }
    assert "alltoallv" in collectives  # the scan sees the dispatching methods

    root = Path(repro.__file__).parent
    called = set()
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "mpi":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id == "comm") or (
                isinstance(owner, ast.Attribute) and owner.attr == "comm"
            ):
                called.add(node.func.attr)
    assert sorted(collectives - called) == []
