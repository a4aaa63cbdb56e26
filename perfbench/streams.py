"""Seeded graph6 streams for the `stream_n7` command and their oracle.

Built from networkx's graph atlas (every graph on up to 7 vertices), never
from `cdspectra`, so a change to the package's enumerator cannot change the
inputs the benchmark feeds it.  Every isomorphism class of the target
class (connected, diameter > 3) appears the same number of times, each copy
relabeled at random.  So the verdict does not depend on the seed (the class
maximiser of lambda_n is always in the sample), and neither does the amount
of spectral work; the seed draws the labelings, the rejects and the order.
"""

import random
from dataclasses import dataclass

import networkx as nx
import numpy as np

ORDER = 7
COPIES = 7                  # relabeled copies of each member class
NEAR_MISSES = 250           # connected, diameter <= 3: the filter must reject
DISCONNECTED = 100          # the filter must reject


@dataclass
class Stream:
    lines: list[str]
    members: int
    distinct_classes: int

    @property
    def member_ratio(self) -> float:
        return self.members / len(self.lines)

    @property
    def distinct_ratio(self) -> float:
        return self.distinct_classes / self.members


def _atlas_groups(n: int) -> tuple[list, list, list]:
    """Atlas graphs on n vertices split into (members, near misses, disconnected)."""
    members, near, disconnected = [], [], []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != n:
            continue
        if not nx.is_connected(g):
            disconnected.append(g)
        elif nx.diameter(g) > 3:
            members.append(g)
        else:
            near.append(g)
    return members, near, disconnected


def _relabeled_graph6(g: nx.Graph, rng: random.Random) -> str:
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    h = nx.empty_graph(len(perm))
    h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def make_stream(seed: int) -> Stream:
    """The stream for `seed`: relabeled members and rejects, shuffled."""
    rng = random.Random(seed)
    members, near, disconnected = _atlas_groups(ORDER)
    graphs = members * COPIES
    graphs += [rng.choice(near) for _ in range(NEAR_MISSES)]
    graphs += [rng.choice(disconnected) for _ in range(DISCONNECTED)]
    lines = [_relabeled_graph6(g, rng) for g in graphs]
    rng.shuffle(lines)
    return Stream(lines, members=len(members) * COPIES, distinct_classes=len(members))


def oracle_max_ln(lines: list[str]) -> tuple[int, float]:
    """(class members, max lambda_n of D(G^c)) over the stream, by networkx + LAPACK."""
    mats = []
    for line in lines:
        g = nx.from_graph6_bytes(line.encode())
        if nx.is_connected(g) and nx.diameter(g) > 3:
            gc = nx.complement(g)
            mats.append(nx.floyd_warshall_numpy(gc, nodelist=sorted(gc)))
    return len(mats), float(np.linalg.eigvalsh(np.array(mats))[:, 0].max())
