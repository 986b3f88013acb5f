"""Level-1 homotopy tables by a relator-cell sweep.

The logged search of `build_h1` fails on several ladder groups, so the
ladder loads h1 from files made here instead.  A relator cell (g, r) is the
loop that starts at element g and reads relator r.  Its h1 must have the
boundary of r based at g, so when exactly one arrow of the cell has no entry
yet, that arrow's entry is forced:

    h1(edge) = h1(prefix)^-1 . r^{sigma(g)^-1} . h1(suffix)^-1

(inverted when the cell reads the arrow backwards).  Sweeping the cells in a
fixed order until nothing changes fills every non-tree arrow of the groups
the benchmark uses.  The result is written in the `--h1 FILE` format, so
`H1Table` re-checks every entry's boundary whenever the file is loaded.
"""

from __future__ import annotations

from types import SimpleNamespace

from crossres.crossed import act, crossed, inv, mult, render_crossed
from crossres.group_core import Contraction0
from crossres.logged_rewriter import H1Table, h1_eval
from crossres.words import Word


def _cell_arrows(graph, g, w):
    """The arrows (h, k) read by the path from g along w, with the sign of
    each traversal, in order."""
    out = []
    v = g
    for name, sign in w:
        k = graph.gen_index(name)
        if sign == 1:
            out.append(((v, k), 1))
            v = graph.fwd[v][k]
        else:
            v = graph.bwd[v][k]
            out.append(((v, k), -1))
    return out


def sweep_h1(contraction: Contraction0) -> H1Table:
    """Fill every non-tree arrow from relator cells; raises ValueError when
    the sweep stops with arrows still empty."""
    graph = contraction.graph
    pres = graph.presentation
    entries = {}
    # h1_eval needs only `graph` and `entries`; H1Table's boundary check
    # runs once the sweep is done.
    partial = SimpleNamespace(graph=graph, entries=entries)
    cells = [(g, name, w) for g in range(graph.order) for name, w in pres.relators]
    progress = True
    while progress:
        progress = False
        for g, name, w in cells:
            arrows = _cell_arrows(graph, g, w)
            unknown = [i for i, (edge, _) in enumerate(arrows)
                       if edge not in contraction.tree and edge not in entries]
            if len(unknown) != 1:
                continue
            i = unknown[0]
            edge, sign = arrows[i]
            prefix, suffix = Word(w.letters[:i]), Word(w.letters[i + 1:])
            after = graph.eval_word(Word(w.letters[:i + 1]), g)
            based = act(crossed(name), contraction.sigma_bar(g))
            value = mult(mult(inv(h1_eval(partial, g, prefix)), based),
                         inv(h1_eval(partial, after, suffix)))
            entries[edge] = value if sign == 1 else inv(value)
            progress = True
    return H1Table(contraction, entries)


def render_h1(table: H1Table) -> str:
    """The table in the `--h1 FILE` format, one non-tree arrow per line."""
    graph = table.graph
    return "".join(f"{graph.elt_name(g)} {graph.gens[k]} := {render_crossed(c)}\n"
                   for (g, k), c in sorted(table.entries.items()))
