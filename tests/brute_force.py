"""Brute-force reference oracles: every word up to a degree, and the spanning
set of the relation ideal over those words.  They enumerate all contexts of
all rules, so they are meant for the small systems of the tests."""

from linrew.rewriting import _row, all_words


def words_up_to(quiver, dmax: int) -> list:
    out = []
    for d in range(dmax + 1):
        out.extend(all_words(quiver, d))
    return out


def ideal_spanning(P, dmax: int):
    """All context embeddings u (source - target) v whose top monomial has
    degree <= dmax, as rows over the basis of all words of degree <= dmax.
    Returns (rows, index)."""
    field = P.field
    words = words_up_to(P.quiver, dmax)
    index = {m: i for i, m in enumerate(words)}
    contexts = words  # identity contexts included
    rows = []
    for rule in P.rules:
        rel = rule.relation()
        for u in contexts:
            if u.target != rule.source.source or u.degree + rule.degree > dmax:
                continue
            for v in contexts:
                if v.source != rule.source.target:
                    continue
                if u.degree + rule.source.degree + v.degree > dmax:
                    continue
                emb = rel.whisker(u, v)
                if any(m.degree > dmax for m in emb.terms):
                    continue
                rows.append(_row(emb, index, field))
    return rows, index
