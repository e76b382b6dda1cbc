"""Seeded input generation.

The workload seed picks, for every input algebra, a change of basis: a
permutation of the basis plus a sign for each new basis element.  The
relabelled algebra is isomorphic to the builtin one, so every report must
still pass, while elimination order and sparsity layout change with the
seed.  The program only ever sees the files written here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from hopfcheck import catalog
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Matrix, Tensor3


@dataclass(frozen=True)
class Relabelling:
    """New basis element a is signs[a] times old basis element perm[a]."""

    perm: tuple
    signs: tuple

    def as_json(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}


def choose_relabelling(seed: int, name: str, dim: int) -> Relabelling:
    """The relabelling of one algebra; independent of job order."""
    rng = random.Random(f"{seed}:{name}")
    perm = list(range(dim))
    rng.shuffle(perm)
    return Relabelling(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(dim)))


def relabel(h: HopfAlgebra, r: Relabelling) -> HopfAlgebra:
    """The same Hopf algebra written in the basis f_a = signs[a] e_perm[a].

    Every structure constant picks up the product of the signs of its
    indices: mul[a][b][c] = s_a s_b s_c mul[p(a)][p(b)][p(c)], likewise for
    comul; unit, counit and each antipode entry carry one sign per index.
    """
    n = h.dim
    perm, signs = r.perm, r.signs
    new_index = [0] * n
    for a, old in enumerate(perm):
        new_index[old] = a

    def signed(x, *idx):
        sign = 1
        for a in idx:
            sign *= signs[a]
        return x if sign == 1 else -x

    def tensor(t: Tensor3) -> Tensor3:
        triples = {}
        for i, j, k, x in t.nonzero():
            a, b, c = new_index[i], new_index[j], new_index[k]
            triples[(a, b, c)] = signed(x, a, b, c)
        return Tensor3.from_dict(h.field, n, triples)

    names = [("-" if signs[a] < 0 else "") + h.basis_names[perm[a]] for a in range(n)]
    unit = [signed(h.unit[perm[a]], a) for a in range(n)]
    counit = [signed(h.counit[perm[a]], a) for a in range(n)]
    antipode = None
    if h.antipode is not None:
        s = h.antipode.data
        antipode = Matrix(h.field, [[signed(s[perm[a]][perm[b]], a, b) for b in range(n)]
                                    for a in range(n)])
    return HopfAlgebra(h.field, names, tensor(h.mul), unit, tensor(h.comul), counit,
                       antipode, name=h.name)


def builtin_or_fixture(name: str) -> HopfAlgebra:
    if name == "idempotent-monoid":
        return catalog.build_nongroup_monoid_bialgebra()
    return catalog.builtin(name)


@dataclass(frozen=True)
class Input:
    """One generated algebra file and the algebra it holds."""

    name: str
    path: str
    algebra: HopfAlgebra
    relabelling: Relabelling


def write_input(workdir: str, seed: int, name: str, strip_antipode: bool) -> Input:
    """Relabel a builtin and write it through the public JSON format.

    With strip_antipode the file has no antipode section, so reading it
    makes the program synthesize one; the returned algebra keeps the
    relabelled known antipode for checking.
    """
    source = builtin_or_fixture(name)
    r = choose_relabelling(seed, name, source.dim)
    h = relabel(source, r)
    doc = catalog.algebra_to_json(h)
    if strip_antipode:
        doc.pop("antipode", None)
    suffix = ".noS.alg" if strip_antipode else ".alg"
    path = os.path.join(workdir, name + suffix)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return Input(name, path, h, r)
