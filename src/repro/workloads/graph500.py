"""Graph500 Seq-CSR (G500) — breadth-first search (§5.1).

BFS over a Kronecker graph in CSR form, structured as the reference
implementation's per-level scan: a driver walks levels, calling
``bfs_level`` to expand the current frontier queue into the next one::

    for (k = 0; k < cnt; k++) {      /* work list   */
        v = qa[k];
        for (e = xoff[v]; e < xoff[v+1]; e++) {   /* edge list   */
            w = xadj[e];
            if (parent[w] < 0) { parent[w] = v; qb[nc++] = w; }
        }
    }

Four prefetch opportunities exist (work→vertex, work→edge, work→parent
staggered; and edge→parent in the inner loop).  The automatic pass picks
up work→vertex (t=2) and the inner-loop edge→parent (t=2) — but *not*
the edge-list prefetch, because the DFS prefers the innermost induction
variable ``e``, under which ``xadj[e]`` is a plain stride (exactly the
"complicated control flow" limitation §6.1 describes).  The manual
variant staggers the full work-list chain across all four structures.
"""

from __future__ import annotations

import functools

import numpy as np

from ..ir.builder import IRBuilder
from ..ir.module import Module
from ..ir.types import INT64, VOID, pointer
from ..ir.verifier import verify_module
from ..machine.memory import Memory
from .base import PreparedRun, Workload
from .kronecker import CSRGraph, bfs_reference, generate_kronecker

#: Queue slack for unclamped manual look-ahead reads.
QUEUE_SLACK = 2 * 256 + 8


@functools.lru_cache(maxsize=4)
def _kronecker(scale: int, edge_factor: int, seed: int) -> CSRGraph:
    """The graph of one ``(scale, edge_factor, seed)``, generated once
    per process and shared by every instance: its arrays are read-only."""
    graph = generate_kronecker(scale, edge_factor, seed=seed)
    graph.xoff.flags.writeable = False
    graph.xadj.flags.writeable = False
    return graph


class Graph500(Workload):
    """Graph500 seq-csr BFS.

    :param scale: log2 of the vertex count (the paper runs -s 16 and
        -s 21; scaled down by default for simulation time).
    :param edge_factor: undirected edges per vertex (paper: -e 10).
    """

    def __init__(self, scale: int = 14, edge_factor: int = 10,
                 seed: int = 47, label: str | None = None):
        super().__init__(seed)
        self.scale = scale
        self.edge_factor = edge_factor
        self.name = label or f"G500-s{scale}"

    @property
    def graph(self) -> CSRGraph:
        """The Kronecker graph, a function of ``(scale, edge_factor,
        seed)`` only — not instance state, so ``prepare`` keeps the
        :meth:`Workload.prepare` contract."""
        return _kronecker(self.scale, self.edge_factor, self.seed)

    # -- IR ---------------------------------------------------------------

    def _signature(self, module: Module):
        func = module.create_function(
            "bfs_level", INT64,
            [("xoff", pointer(INT64)), ("xadj", pointer(INT64)),
             ("parent", pointer(INT64)), ("qa", pointer(INT64)),
             ("qb", pointer(INT64)), ("cnt", INT64), ("nv", INT64),
             ("ne", INT64)])
        # Graph500's arrays are heap-allocated with runtime sizes the
        # compiler cannot see (no ``array_size`` annotations), so the
        # prefetch pass must fall back to loop bounds: inner-loop parent
        # prefetches stay within the current vertex's edge run — the
        # "short-distance" pattern §6.1 calls suboptimal on Haswell.
        # ``noalias`` reflects the distinct malloc'd buffers.
        for name in ("xoff", "xadj", "parent", "qa", "qb"):
            func.arg(name).noalias = True
        return func

    def _build(self, manual_lookahead: int | None,
               inner_parent_prefetch_manual: bool = True) -> Module:
        module = Module("g500")
        level_fn = self._signature(module)
        b = IRBuilder()

        xoff, xadj = level_fn.arg("xoff"), level_fn.arg("xadj")
        parent = level_fn.arg("parent")
        qa, qb = level_fn.arg("qa"), level_fn.arg("qb")
        cnt = level_fn.arg("cnt")

        entry = level_fn.add_block("entry")
        kbody = level_fn.add_block("kbody")
        ebody = level_fn.add_block("ebody")
        visit = level_fn.add_block("visit")
        emerge = level_fn.add_block("emerge")
        klatch = level_fn.add_block("klatch")
        kdone = level_fn.add_block("kdone")

        b.set_insert_point(entry)
        kguard = b.cmp("slt", b.const(0), cnt, "kguard")
        b.br(kguard, kbody, kdone)

        # Work-list loop.
        b.set_insert_point(kbody)
        k = b.phi(INT64, "k")
        nck = b.phi(INT64, "nck")
        if manual_lookahead is not None:
            c = manual_lookahead
            # Staggered prefetches of the whole work-list chain
            # (offsets c, 3c/4, c/2, c/4 — eq. (1) with t = 4).
            kc = b.add(k, b.const(c), "pfq.k")
            b.prefetch(b.gep(qa, kc, "pfq.p"))
            k3 = b.add(k, b.const(max(1, 3 * c // 4)), "pfo.k")
            v3 = b.load(b.gep(qa, k3, "pfo.qp"), "pfo.v")
            b.prefetch(b.gep(xoff, v3, "pfo.p"))
            k2 = b.add(k, b.const(max(1, c // 2)), "pfe.k")
            v2 = b.load(b.gep(qa, k2, "pfe.qp"), "pfe.v")
            lo2 = b.load(b.gep(xoff, v2, "pfe.op"), "pfe.lo")
            b.prefetch(b.gep(xadj, lo2, "pfe.p"))
            # Cover the first few lines of the vertex's edge run.
            for line in (8, 16):
                ahead = b.add(lo2, b.const(line), f"pfe.lo{line}")
                b.prefetch(b.gep(xadj, ahead, f"pfe.p{line}"))
            k1 = b.add(k, b.const(max(1, c // 4)), "pfp.k")
            v1 = b.load(b.gep(qa, k1, "pfp.qp"), "pfp.v")
            lo1 = b.load(b.gep(xoff, v1, "pfp.op"), "pfp.lo")
            w1 = b.load(b.gep(xadj, lo1, "pfp.ep"), "pfp.w")
            b.prefetch(b.gep(parent, w1, "pfp.p"))
        v = b.load(b.gep(qa, k, "qp"), "v")
        lo = b.load(b.gep(xoff, v, "lop"), "lo")
        v_plus = b.add(v, b.const(1), "v1")
        hi = b.load(b.gep(xoff, v_plus, "hip"), "hi")
        eguard = b.cmp("slt", lo, hi, "eguard")
        b.br(eguard, ebody, klatch)

        # Edge loop.
        b.set_insert_point(ebody)
        e = b.phi(INT64, "e")
        nce = b.phi(INT64, "nce")
        if manual_lookahead is not None and inner_parent_prefetch_manual:
            # Short-distance parent prefetch off each edge, clamped to
            # the current vertex's edge run ("provided the look-ahead
            # distance is small enough to be within the same vertex's
            # edges", §5.1).
            e_ahead = b.add(e, b.const(max(1, manual_lookahead // 8)),
                            "pfi.e")
            limit = b.sub(hi, b.const(1), "pfi.lim")
            e_cl = b.smin(e_ahead, limit, "pfi.ecl")
            w_ahead = b.load(b.gep(xadj, e_cl, "pfi.ep"), "pfi.w")
            b.prefetch(b.gep(parent, w_ahead, "pfi.p"))
        w = b.load(b.gep(xadj, e, "ep"), "w")
        pw = b.load(b.gep(parent, w, "pp"), "pw")
        unvisited = b.cmp("slt", pw, b.const(0), "unvisited")
        b.br(unvisited, visit, emerge)

        b.set_insert_point(visit)
        b.store(v, b.gep(parent, w, "pset"))
        b.store(w, b.gep(qb, nce, "qbp"))
        nc_v = b.add(nce, b.const(1), "nc.v")
        b.jmp(emerge)

        b.set_insert_point(emerge)
        nc_m = b.phi(INT64, "nc.m")
        nc_m.add_incoming(nce, ebody)
        nc_m.add_incoming(nc_v, visit)
        e_next = b.add(e, b.const(1), "e.next")
        econd = b.cmp("slt", e_next, hi, "econd")
        b.br(econd, ebody, klatch)
        e.add_incoming(lo, kbody)
        e.add_incoming(e_next, emerge)
        nce.add_incoming(nck, kbody)
        nce.add_incoming(nc_m, emerge)

        b.set_insert_point(klatch)
        nc_out = b.phi(INT64, "nc.out")
        nc_out.add_incoming(nck, kbody)
        nc_out.add_incoming(nc_m, emerge)
        k_next = b.add(k, b.const(1), "k.next")
        kcond = b.cmp("slt", k_next, cnt, "kcond")
        b.br(kcond, kbody, kdone)
        k.add_incoming(b.const(0), entry)
        k.add_incoming(k_next, klatch)
        nck.add_incoming(b.const(0), entry)
        nck.add_incoming(nc_out, klatch)

        b.set_insert_point(kdone)
        result = b.phi(INT64, "result")
        result.add_incoming(b.const(0), entry)
        result.add_incoming(nc_out, klatch)
        b.ret(result)

        # Driver: the level loop, swapping queues each level.
        driver = module.create_function(
            "kernel", VOID,
            [("xoff", pointer(INT64)), ("xadj", pointer(INT64)),
             ("parent", pointer(INT64)), ("q1", pointer(INT64)),
             ("q2", pointer(INT64)), ("count0", INT64), ("nv", INT64),
             ("ne", INT64)])
        dentry = driver.add_block("entry")
        dlevel = driver.add_block("level")
        dexit = driver.add_block("exit")
        b.set_insert_point(dentry)
        b.jmp(dlevel)
        b.set_insert_point(dlevel)
        cur_a = b.phi(pointer(INT64), "cur.a")
        cur_b = b.phi(pointer(INT64), "cur.b")
        cur_n = b.phi(INT64, "cur.n")
        nc = b.call(level_fn,
                    [driver.arg("xoff"), driver.arg("xadj"),
                     driver.arg("parent"), cur_a, cur_b, cur_n,
                     driver.arg("nv"), driver.arg("ne")], "nc")
        more = b.cmp("sgt", nc, b.const(0), "more")
        b.br(more, dlevel, dexit)
        cur_a.add_incoming(driver.arg("q1"), dentry)
        cur_a.add_incoming(cur_b, dlevel)
        cur_b.add_incoming(driver.arg("q2"), dentry)
        cur_b.add_incoming(cur_a, dlevel)
        cur_n.add_incoming(driver.arg("count0"), dentry)
        cur_n.add_incoming(nc, dlevel)
        b.set_insert_point(dexit)
        b.ret()

        verify_module(module)
        return module

    def build(self) -> Module:
        return self._build(None)

    def build_manual(self, lookahead: int = 64, *,
                     inner_parent_prefetch: bool = True,
                     **_unused) -> Module:
        return self._build(lookahead, inner_parent_prefetch)

    # -- data ----------------------------------------------------------------

    def prepare(self, memory: Memory) -> PreparedRun:
        graph = self.graph
        nv = graph.num_vertices
        ne = graph.num_directed_edges
        # Root: a vertex with edges (Graph500 requires non-isolated keys).
        degrees = np.diff(graph.xoff)
        root = int(np.argmax(degrees > 0))

        xoff = memory.allocate(8, nv + 1, "xoff")
        xoff.fill(graph.xoff)
        xadj = memory.allocate(8, max(ne, 1), "xadj")
        xadj.fill(graph.xadj)
        parent = memory.allocate(8, nv, "parent")
        parent.fill(np.full(nv, -1, dtype=np.int64))
        q1 = memory.allocate(8, nv + QUEUE_SLACK, "q1")
        q2 = memory.allocate(8, nv + QUEUE_SLACK, "q2")

        parent.data[root] = root
        q1.data[0] = root

        expected = bfs_reference(graph, root)

        def validate() -> None:
            got = parent.as_numpy()
            if not np.array_equal(got, expected):
                raise AssertionError(f"{self.name} BFS parents are wrong")

        return PreparedRun(
            args=[xoff.base, xadj.base, parent.base, q1.base, q2.base,
                  1, nv, ne],
            validate=validate,
            iterations=ne)
