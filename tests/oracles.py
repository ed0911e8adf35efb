"""Independent brute-force reference implementations.

Everything here evaluates definitions directly (counting loops, explicit
prefix intersections, numeric integration) and shares no code with the
package, so it can back expected values in the tests.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


def brute_precision_at_k(ranking, grades, k):
    hits = 0
    for doc in ranking[:k]:
        if grades.get(doc, 0) >= 1:
            hits += 1
    return hits / k


def brute_average_precision(ranking, grades, cutoff=None):
    relevant = {d for d, g in grades.items() if g >= 1}
    if not relevant:
        raise ValueError("no relevant docs")
    docs = ranking if cutoff is None else ranking[:cutoff]
    total = 0.0
    for i in range(len(docs)):
        if docs[i] in relevant:
            prec_here = sum(1 for d in docs[: i + 1] if d in relevant) / (i + 1)
            total += prec_here
    return total / len(relevant)


def brute_ndcg_at_k(ranking, grades, k):
    dcg = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        dcg += grades.get(doc, 0) / math.log2(i + 1)
    ideal = sorted(grades.values(), reverse=True)
    idcg = 0.0
    for i, g in enumerate(ideal[:k], start=1):
        idcg += g / math.log2(i + 1)
    if idcg == 0:
        raise ValueError("no relevant docs")
    return dcg / idcg



# The per-measure scorers that the one-walk ``score_run`` replaced, kept
# verbatim. They sum in the same order as the package, so a score the package
# gives must equal theirs exactly (==), not only to a tolerance.

def _judged_hits(ranking, grades, k):
    return [(i, g) for i, g in enumerate(map(grades.get, ranking[:k]), start=1) if g]


def exact_precision_at_k(ranking, grades, k):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(_judged_hits(ranking, grades, k)) / k


def exact_average_precision(ranking, grades, cutoff=None):
    n_rel = sum(1 for g in grades.values() if g > 0)
    if n_rel == 0:
        raise ValueError("topic has no relevant documents; filter upstream")
    total = 0.0
    for hits, (i, _) in enumerate(_judged_hits(ranking, grades, cutoff), start=1):
        total += hits / i
    return total / n_rel


def exact_ndcg_at_k(ranking, grades, k):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = math.fsum(g / math.log2(i + 1) for i, g in _judged_hits(ranking, grades, k))
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = math.fsum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0:
        raise ValueError("topic has no relevant documents; filter upstream")
    return dcg / idcg


# a rank is a sign and ASCII digits; a score is float()'s grammar with ASCII
# digits, no underscores and no NaN
_RANK = re.compile(r"[+-]?[0-9]+")
_SCORE = re.compile(r"[+-]?(?:(?:[0-9]*\.[0-9]+|[0-9]+\.?)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity))")


def brute_parse_run(text, mode="strict"):
    """Parse TREC run text with a plain line loop.

    Returns ``(tag, topics, warnings)``, where ``topics`` is a list of
    ``(topic, [(doc_id, score), ...])`` in canonical order: numeric topic ids
    ascending, then the others lexicographically; within a topic score
    descending, ties by doc id descending. ``\\n``, ``\\r\\n`` and ``\\r`` each
    end a line. Bad input raises ``ValueError`` carrying the message the
    package's parse error should carry.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    tag = None
    by_topic = {}
    warnings = []
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        cols = raw.split()
        if not cols:
            continue
        if len(cols) != 6:
            raise ValueError(f"line {line_no}: expected 6 columns, got {len(cols)}: {raw.strip()!r}")
        topic, _q0, doc, rank_text, score_text, run_tag = cols
        if not _RANK.fullmatch(rank_text):
            raise ValueError(f"line {line_no}: non-integer rank {rank_text!r}")
        if not _SCORE.fullmatch(score_text):
            raise ValueError(f"line {line_no}: non-numeric score {score_text!r}")
        score = float(score_text)
        if tag is None:
            tag = run_tag
        docs = by_topic.setdefault(topic, {})
        if doc in docs:
            if mode == "strict":
                raise ValueError(f"line {line_no}: duplicate doc {doc!r} in topic {topic}")
            warnings.append(f"line {line_no}: duplicate doc {doc!r} in topic {topic}, kept higher score")
            if score > docs[doc]:
                docs[doc] = score
        else:
            docs[doc] = score
    if tag is None:
        raise ValueError("empty run input")
    numeric = sorted((t for t in by_topic if t.isdecimal()), key=int)
    other = sorted(t for t in by_topic if not t.isdecimal())
    topics = []
    for topic in numeric + other:
        ranked = sorted(by_topic[topic].items(), key=lambda item: (item[1], item[0]), reverse=True)
        topics.append((topic, ranked))
    return tag, topics, warnings


_GRADE = re.compile(r"[+-]?[0-9]+")


def brute_parse_qrels(text):
    """Parse qrels text with a plain line loop.

    Returns ``(topics, warnings)``, where ``topics`` is a list of
    ``(topic, {doc_id: grade})``, numeric topic ids first by value and then by
    string, the others by string after them, each map holding only the
    documents of grade > 0. A grade is an optional sign and ASCII digits. The
    last judgment of a (topic, doc) pair wins, with a warning, and a negative
    grade counts as 0, with a warning. Bad input raises ``ValueError``
    carrying the message the package's parse error should carry.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    judged = {}
    warnings = []
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        cols = raw.split()
        if not cols:
            continue
        if len(cols) != 4:
            raise ValueError(f"line {line_no}: expected 4 columns, got {len(cols)}: {raw.strip()!r}")
        topic, _iteration, doc, grade_text = cols
        if not _GRADE.fullmatch(grade_text):
            raise ValueError(f"line {line_no}: non-integer grade {grade_text!r}")
        grade = int(grade_text)
        if grade < 0:
            warnings.append(f"line {line_no}: negative grade {grade} for doc {doc!r}, clamped to 0")
            grade = 0
        docs = judged.setdefault(topic, {})
        if doc in docs:
            warnings.append(f"line {line_no}: repeated judgment for doc {doc!r} in topic {topic}, kept last")
        docs[doc] = grade
    if not judged:
        raise ValueError("empty qrels input")
    numeric = sorted((t for t in judged if t.isdecimal()), key=lambda t: (int(t), t))
    other = sorted(t for t in judged if not t.isdecimal())
    topics = [(topic, {doc: grade for doc, grade in judged[topic].items() if grade > 0})
              for topic in numeric + other]
    return topics, warnings


def brute_canonical_order(scores):
    """``[(doc_id, score), ...]`` of a ``{doc_id: score}`` map in canonical order.

    No sort: each document goes to the position given by the number of
    documents ahead of it, those with a higher score or an equal score and a
    larger id (``-0.0`` equals ``0.0``). O(n^2).
    """
    placed = [None] * len(scores)
    for doc, score in scores.items():
        ahead = sum(1 for d, s in scores.items() if s > score or (s == score and d > doc))
        placed[ahead] = (doc, score)
    return placed


def brute_kendall_tau(x, y):
    """Exhaustive pair enumeration of concordant/discordant/tied pairs."""
    n = len(x)
    p = q = u = v = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                u += 1
            elif dy == 0:
                v += 1
            elif (dx > 0) == (dy > 0):
                p += 1
            else:
                q += 1
    denom = math.sqrt((p + q + u) * (p + q + v))
    if denom == 0:
        return None
    return (p - q) / denom


def brute_inversions(values):
    """Pairs i < j with values[i] > values[j], by comparing every pair."""
    n = len(values)
    return sum(values[i] > values[j] for i in range(n) for j in range(i + 1, n))


def brute_rbo(r_docs, s_docs, phi, depth):
    """Direct summation with explicit prefix-set intersections at every depth."""
    d = min(depth, max(len(r_docs), len(s_docs)))
    total = 0.0
    for i in range(1, d + 1):
        a_i = len(set(r_docs[:i]) & set(s_docs[:i])) / i
        total += phi ** (i - 1) * a_i
    return (1 - phi) * total


def running_rbo_sums(r_docs, s_docs, phi, depth):
    """Running sums of phi^(i-1) * A_i for i = 1..min(depth, max(|r|, |s|)).

    The set walk the package used before it counted join depths: each depth
    adds r's and s's next document to the set of its list's prefix and counts
    one against the other's set. On lists of distinct documents it performs the
    same float operations in the same order as the loop of ``ordering.rbo``, so
    ``(1 - phi) * sums[d - 1]`` must equal ``rbo`` at depth d exactly.
    """
    if not r_docs or not s_docs:
        raise ValueError("rankings must be nonempty")
    d = min(depth, max(len(r_docs), len(s_docs)))
    seen_r = set()
    seen_s = set()
    overlap = 0
    total = 0.0
    weight = 1.0  # phi^(i-1)
    sums = []
    for i in range(1, d + 1):
        # add r's doc first so an identical doc at depth i counts exactly once
        if i <= len(r_docs):
            doc = r_docs[i - 1]
            if doc in seen_s:
                overlap += 1
            seen_r.add(doc)
        if i <= len(s_docs):
            doc = s_docs[i - 1]
            if doc in seen_r:
                overlap += 1
            seen_s.add(doc)
        total += weight * (overlap / i)
        sums.append(total)
        weight *= phi
    return sums


def brute_effect(b, a, b_prime, a_prime):
    """ER, RI, RI', Delta RI, their region and the distance to (1, 0), from the
    paper's definitions in exact arithmetic, for both replicated and reproduced
    pairs: each mean is over its own pair's topics. Arguments are score lists,
    b and a topic-aligned, b_prime and a_prime topic-aligned.

    ER is the exact mean of the per-topic float differences a' - b' over that
    of a - b; RI is (mean(a) - mean(b)) / mean(b) on the exact scores. The
    values are Fractions, except ``dist``; ``region`` is None where ER or
    Delta RI is zero. A value whose denominator is zero is None, and so is
    each value computed from it: Delta RI from RI and RI', region and dist
    from ER and Delta RI.
    """
    def mean(xs):
        return sum(map(Fraction, xs), Fraction(0)) / len(xs)

    def ratio(num, den):
        return None if den == 0 else num / den

    er = ratio(mean([x - y for x, y in zip(a_prime, b_prime)]), mean([x - y for x, y in zip(a, b)]))
    ri = ratio(mean(a) - mean(b), mean(b))
    ri_prime = ratio(mean(a_prime) - mean(b_prime), mean(b_prime))
    delta_ri = None if ri is None or ri_prime is None else ri - ri_prime
    region = dist = None
    if er is not None and delta_ri is not None:
        dist = math.hypot(er - 1, delta_ri)
        if er != 0 and delta_ri != 0:
            region = {(True, True): "1", (False, True): "2", (False, False): "3", (True, False): "4"}[
                (er > 0, delta_ri > 0)]
    return {"er": er, "ri": ri, "ri_prime": ri_prime, "delta_ri": delta_ri, "region": region,
            "dist": dist}


def t_cdf_by_integration(t, dof, n_points=200001):
    """Student-t CDF via trapezoidal integration of the density."""
    if t == 0:
        return 0.5
    const = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
    hi = abs(t)
    xs = np.linspace(0.0, hi, n_points)
    density = const * (1 + xs ** 2 / dof) ** (-(dof + 1) / 2)
    half = float(np.trapezoid(density, xs))
    return 0.5 + half if t > 0 else 0.5 - half
