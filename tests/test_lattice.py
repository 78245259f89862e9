from math import gcd, isqrt

import pytest

from lensfill import cli, lattice
from lensfill.errors import ConsistencyViolated
from lensfill.exact import smith_diagonal
from lensfill.fillings import invariants, make_params, zset
from lensfill.lattice import (
    SphereClass,
    StringConfiguration,
    build_string,
    check_filling,
    complement_homology,
    dot,
    minimal_si_counts,
    orthogonal_minus_one_classes,
    validate_hom_classes,
    validate_string_lemma,
)


def coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def cls(line, lead, *tails):
    return SphereClass(line, lead, frozenset(tails))


LINE = cls(1, 0)


# Test-only reference: classes expanded to dense coefficient rows over
# (l, f_1, ..., f_m), paired by the diagonal form diag(+1, -1, ..., -1).
def dense(c, m):
    row = [c.line] + [0] * m
    if c.lead:
        row[c.lead] += 1
    for j in c.tails:
        row[j] -= 1
    return tuple(row)


def dense_dot(u, v):
    return u[0] * v[0] - sum(a * c for a, c in zip(u[1:], v[1:]))


def test_dot_is_the_standard_form():
    assert dot(LINE, LINE) == 1
    assert dot(cls(0, 1), cls(0, 1)) == -1
    assert dot(cls(0, 0, 1), cls(0, 0, 1)) == -1
    assert dot(cls(1, 0, 1, 2), cls(1, 0, 1, 2)) == -1  # l - f1 - f2
    assert dot(cls(0, 1, 2), cls(0, 2, 3)) == 1  # (f1 - f2).(f2 - f3)
    assert dot(cls(0, 1, 2), cls(1, 0, 1, 4)) == 1  # (f1 - f2).(l - f1 - f4)
    assert dot(cls(0, 3, 1, 2), cls(0, 2, 3)) == 2  # (f3 - f1 - f2).(f2 - f3)
    assert dot(cls(0, 3, 1, 2), cls(0, 1, 2)) == 0
    assert dot(cls(0, 1, 2), cls(1, 0, 3)) == 0


def test_build_string_k1():
    cfg = build_string((2,), (0,))
    assert cfg.m_total == 2
    assert cfg.classes == (LINE, cls(1, 0, 1, 2))
    assert dot(cfg.classes[1], cfg.classes[1]) == -1


def test_build_string_examples():
    cfg = build_string((2, 2, 2), (1, 2, 1))
    # two strict blowups plus one extra on each end curve
    assert cfg.m_total == 4
    types = [dot(c, c) for c in cfg.classes]
    assert types == [1, -1, -2, -2]

    cfg = build_string((2, 2, 2), (2, 1, 2))
    assert cfg.m_total == 3
    assert [dot(c, c) for c in cfg.classes] == [1, -1, -2, -2]


def test_build_string_rejects_bad_input():
    with pytest.raises(ValueError):
        build_string((2, 2), (1, 2, 1))
    with pytest.raises(ValueError):
        build_string((2, 2, 2), (3, 1, 2))
    with pytest.raises(ValueError):
        build_string((2, 2, 2), (2, 2, 2))  # not a zero tuple


def test_validate_hom_classes_on_builds():
    for p, q in coprime_pairs(25):
        pr = make_params(p, q)
        for n in zset(pr):
            assert validate_hom_classes(build_string(pr.b, n))


def test_validate_hom_classes_rejects_corruptions():
    good = build_string((2, 2, 2), (1, 2, 1))
    # l - f1 - f3, f1 - f2, f2 - f4
    assert good.classes == (LINE, cls(1, 0, 1, 3), cls(0, 1, 2), cls(0, 2, 4))

    def with_class(i, c):
        classes = good.classes[:i] + (c,) + good.classes[i + 1 :]
        return StringConfiguration(b=good.b, n=good.n, m_total=good.m_total, classes=classes)

    assert validate_hom_classes(with_class(2, cls(0, 1, 2)))
    # the lead inside the tails: f1 - f1 is the zero class, not a sphere
    assert not validate_hom_classes(with_class(2, cls(0, 1, 1)))
    # a lead on C_1, which must be l minus exceptionals only
    assert not validate_hom_classes(with_class(1, cls(1, 4, 1, 3)))
    # a wrong tail count for C_1 (b_1 = 2) and for C_3 (b_3 - 1 = 1)
    assert not validate_hom_classes(with_class(1, cls(1, 0, 1)))
    assert not validate_hom_classes(with_class(3, cls(0, 2, 3, 4)))
    # an index outside 1..M, in the tails and as the lead
    assert not validate_hom_classes(with_class(3, cls(0, 2, 5)))
    assert not validate_hom_classes(with_class(2, cls(0, 1, 0)))
    assert not validate_hom_classes(with_class(3, cls(0, 5, 4)))


def test_validate_string_lemma_on_builds():
    for p, q in coprime_pairs(25):
        pr = make_params(p, q)
        for n in zset(pr):
            assert validate_string_lemma(build_string(pr.b, n))


def test_validate_string_lemma_rejects_counterexamples_to_checker():
    # shape-valid configurations that are not genuine strings, to exercise
    # the checker itself
    cfg = StringConfiguration(
        b=(2, 2),
        n=(1, 1),
        m_total=3,
        classes=(LINE, cls(1, 0, 1, 2), cls(0, 3, 2)),
    )
    # C_2 leads with f_3, which lies in no earlier tail: claim (1) fails
    assert not validate_string_lemma(cfg)

    cfg = StringConfiguration(
        b=(2, 3),
        n=(1, 1),
        m_total=4,
        classes=(LINE, cls(1, 0, 1, 2), cls(0, 1, 2, 3)),
    )
    # A^1 cap A^2 = {2} and f_2 is not a leading class: claim (2) fails
    assert not validate_string_lemma(cfg)


def test_complement_homology_examples():
    b2, div = complement_homology(build_string((2, 2, 2, 3), (2, 2, 1, 3)))
    assert b2 == 0 and div == [3]

    b2, div = complement_homology(build_string((2, 2, 2), (1, 2, 1)))
    assert b2 == 1 and div == []

    b2, div = complement_homology(build_string((2, 2, 2), (2, 1, 2)))
    assert b2 == 0 and div == [2]  # the conic complement side of L(4,1)

    b2, div = complement_homology(build_string((2,), (0,)))
    assert b2 == 1 and div == []


def dense_homology(cfg):
    """(corank, divisors > 1) of the full pairing matrix: dense rows over
    (l, f_1, ..., f_M) paired with each basis vector, M + 1 columns."""
    m = cfg.m_total
    rows = [dense(c, m) for c in cfg.classes]
    diag = smith_diagonal([[r[0]] + [-x for x in r[1:]] for r in rows])
    return m + 1 - sum(1 for d in diag if d), [d for d in diag if d > 1]


def build_fillings(pairs):
    for p, q in pairs:
        pr = make_params(p, q)
        for n in zset(pr):
            yield build_string(pr.b, n)


def test_complement_homology_matches_dense_smith_up_to_60():
    cfgs = list(build_fillings(coprime_pairs(60)))
    assert len(cfgs) == 1972
    for cfg in cfgs:
        assert complement_homology(cfg) == dense_homology(cfg), (cfg.b, cfg.n)


def test_complement_homology_matches_dense_smith_on_long_chains():
    cfgs = list(build_fillings([(1372105, 1136689), (151316, 110771)]))
    assert len(cfgs) == 925
    for cfg in cfgs:
        assert complement_homology(cfg) == dense_homology(cfg), (cfg.b, cfg.n)


def test_complement_homology_matches_dense_smith_on_hand_built():
    def config(b, n, m, *classes):
        return StringConfiguration(b=b, n=n, m_total=m, classes=classes)

    l_f3 = cls(1, 0, 3)  # an f-term on C_0 shares f_3 with C_1
    string = (cls(1, 0, 1, 3), cls(0, 1, 2), cls(0, 2, 4))
    wide = (cls(1, 0, 1, 3, 5), cls(0, 1, 2), cls(0, 2, 4))  # C_1 keeps f_3, f_5
    cases = [
        (config((2, 2, 2), (1, 2, 1), 4, l_f3, *string), (1, [])),
        (config((2, 2, 2), (1, 1, 1), 5, LINE, *string), (2, [])),  # f_5 unused
        (config((3, 2, 2), (1, 2, 1), 5, LINE, *wide), (2, [])),
        (config((3, 2, 2), (1, 1, 1), 6, l_f3, *wide), (3, [])),
        # no class uses an index alone: the core is the whole 5 x 5 matrix
        (config((2, 2, 2, 3), (2, 2, 1, 3), 4, cls(1, 0, 4), cls(1, 0, 1, 2),
                cls(0, 2, 3), cls(0, 3, 4), cls(0, 1, 2, 3)), (0, [2])),
    ]
    for cfg, want in cases:
        assert complement_homology(cfg) == dense_homology(cfg) == want, cfg


def test_smith_core_is_at_most_k_plus_1_by_k(monkeypatch):
    seen = []

    def recording(matrix):
        seen.append([len(row) for row in matrix])
        return smith_diagonal(matrix)

    monkeypatch.setattr(lattice, "smith_diagonal", recording)
    for cfg in build_fillings(coprime_pairs(60)):
        seen.clear()
        complement_homology(cfg)
        k = len(cfg.b)
        assert len(seen) == 1 and len(seen[0]) <= k + 1, (cfg.b, cfg.n)
        assert all(width <= k for width in seen[0]), (cfg.b, cfg.n)


def test_index_outside_range_raises():
    good = build_string((2, 2, 2), (1, 2, 1))
    classes = (LINE, cls(1, 0, 0, 1)) + good.classes[2:]  # C_1 with tails {0, 1}
    bad = StringConfiguration(b=good.b, n=good.n, m_total=good.m_total, classes=classes)
    for check in (orthogonal_minus_one_classes, minimal_si_counts, complement_homology):
        with pytest.raises(ValueError, match=r"\[C_1\] uses index 0"):
            check(bad)


def test_complement_b2_matches_handle_count():
    for p, q in coprime_pairs(30):
        pr = make_params(p, q)
        for n in zset(pr):
            cfg = build_string(pr.b, n)
            b2, _ = complement_homology(cfg)
            assert b2 == invariants(pr, n).b2


def test_rational_ball_torsion_squares_to_p():
    # fillings with b2 = 0 have |H_1|^2 = p
    for p, q in coprime_pairs(60):
        pr = make_params(p, q)
        for n in zset(pr):
            b2, div = complement_homology(build_string(pr.b, n))
            if b2 == 0:
                order = 1
                for d in div:
                    order *= d
                assert order * order == p, (p, q, n)


def test_minimal_si_counts_examples():
    cfg = build_string((2, 2, 2), (1, 2, 1))
    assert minimal_si_counts(cfg) == (1, 0, 1)
    # a configuration with no extra blowups at all: every count is zero
    cfg = build_string((1, 1), (1, 1))
    assert minimal_si_counts(cfg) == (0, 0)
    cfg = build_string((2, 1, 2), (2, 1, 2))
    assert minimal_si_counts(cfg) == (0, 0, 0)


def test_minimal_si_counts_recovery_sweep():
    for p, q in coprime_pairs(40):
        pr = make_params(p, q)
        for n in zset(pr):
            cfg = build_string(pr.b, n)
            s = minimal_si_counts(cfg)
            assert tuple(b - x for b, x in zip(pr.b, s)) == n


def test_no_minus_one_class_orthogonal_to_string():
    for p, q in coprime_pairs(40):
        pr = make_params(p, q)
        for n in zset(pr):
            assert orthogonal_minus_one_classes(build_string(pr.b, n)) == []


def test_sparse_pairing_matches_dense_for_every_filling_up_to_60():
    fillings = 0
    for p, q in coprime_pairs(60):
        pr = make_params(p, q)
        types = [1, 1 - pr.b[0]] + [-x for x in pr.b[1:]]
        for n in zset(pr):
            cfg = build_string(pr.b, n)
            rows = [dense(c, cfg.m_total) for c in cfg.classes]
            gram = [[dense_dot(u, v) for v in rows] for u in rows]
            chain = [
                [types[i] if i == j else int(abs(i - j) == 1) for j in range(len(rows))]
                for i in range(len(rows))
            ]
            assert gram == chain, (p, q, n)
            sparse = [[dot(u, v) for v in cfg.classes] for u in cfg.classes]
            assert sparse == gram, (p, q, n)
            fillings += 1
    assert fillings == 1972


# Reference: the Gram-bounded walk that counted (-1)-classes before the
# direct column count, kept here to check the count against.  It works on
# dense rows, independently of the sparse pairing.
def reference_minus_one_in_f_span(m):
    basis = [tuple(int(i == j) for i in range(m + 1)) for j in range(1, m + 1)]
    gram_neg = [-dense_dot(e, e) for e in basis]
    bounds = [isqrt(1 // g) for g in gram_neg]
    out = []
    coeffs = [0] * m

    def walk(j, remaining):
        if j == m or remaining == 0:
            if remaining == 0:
                out.append((0,) + tuple(coeffs))
            return
        for x in range(-bounds[j], bounds[j] + 1):
            used = gram_neg[j] * x * x
            if used > remaining:
                continue
            coeffs[j] = x
            walk(j + 1, remaining - used)
        coeffs[j] = 0

    walk(0, 1)
    assert all(dense_dot(e, e) == -1 for e in out)
    return out


def reference_si_counts(cfg):
    k = len(cfg.b)
    counts = [0] * k
    rows = [dense(c, cfg.m_total) for c in cfg.classes]
    for e in reference_minus_one_in_f_span(cfg.m_total):
        profile = [dense_dot(e, c) for c in rows]
        if profile[0] != 0:
            continue
        nz = [i for i in range(1, k + 1) if profile[i]]
        if len(nz) == 1:
            counts[nz[0] - 1] += 1
    assert all(c % 2 == 0 for c in counts)
    return tuple(c // 2 for c in counts)


def reference_orthogonal(cfg):
    """Dense rows of the (-1)-classes orthogonal to every class."""
    rows = [dense(c, cfg.m_total) for c in cfg.classes]
    return [
        e
        for e in reference_minus_one_in_f_span(cfg.m_total)
        if all(dense_dot(e, c) == 0 for c in rows)
    ]


def dense_orthogonal(cfg):
    return [dense(e, cfg.m_total) for e in orthogonal_minus_one_classes(cfg)]


def test_counts_match_reference_walk_for_every_filling_up_to_60():
    fillings = 0
    for p, q in coprime_pairs(60):
        pr = make_params(p, q)
        for n in zset(pr):
            cfg = build_string(pr.b, n)
            assert minimal_si_counts(cfg) == reference_si_counts(cfg), (p, q, n)
            assert dense_orthogonal(cfg) == reference_orthogonal(cfg) == []
            fillings += 1
    assert fillings == 1972


def _padded(cfg, extra, n=None, c0=None):
    """cfg with `extra` exceptional indices that no class uses."""
    classes = cfg.classes
    if c0 is not None:
        classes = (c0,) + classes[1:]
    return StringConfiguration(
        b=cfg.b, n=n or cfg.n, m_total=cfg.m_total + extra, classes=classes
    )


def test_unused_index_gives_plus_minus_f():
    good = build_string((2, 2, 2), (1, 2, 1))
    one = _padded(good, 1)
    assert orthogonal_minus_one_classes(one) == [cls(0, 0, 5), cls(0, 5)]
    assert minimal_si_counts(one) == (1, 0, 1)
    two = _padded(good, 2)
    assert orthogonal_minus_one_classes(two) == [cls(0, 0, 5), cls(0, 0, 6), cls(0, 6), cls(0, 5)]
    assert dense_orthogonal(two) == reference_orthogonal(two) == [
        (0, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 1, 0),
    ]
    assert minimal_si_counts(two) == reference_si_counts(two) == (1, 0, 1)


def test_line_class_with_f_coefficient_is_counted():
    good = build_string((2, 2, 2), (1, 2, 1))
    # f_3 is used by C_1 alone; giving C_0 an f_3 term takes it from s_1
    cfg = _padded(good, 0, n=(2, 2, 1), c0=cls(1, 0, 3))
    assert minimal_si_counts(cfg) == reference_si_counts(cfg) == (0, 0, 1)
    assert dense_orthogonal(cfg) == reference_orthogonal(cfg) == []
    # with an unused index, C_0 still hides f_3 but not the new one
    cfg = _padded(good, 1, n=(2, 2, 1), c0=cls(1, 0, 3))
    assert minimal_si_counts(cfg) == reference_si_counts(cfg) == (0, 0, 1)
    assert dense_orthogonal(cfg) == reference_orthogonal(cfg)
    assert len(orthogonal_minus_one_classes(cfg)) == 2


def test_check_filling_row():
    row = check_filling((2, 2, 2, 3), (2, 2, 1, 3))
    assert list(row) == [
        "n", "m_total", "hom_classes", "string_lemma", "b2", "h1_divisors",
        "si_counts", "minimal",
    ]
    assert row["n"] == [2, 2, 1, 3] and row["b2"] == 0 and row["h1_divisors"] == [3]
    assert row["si_counts"] == [0, 0, 1, 0] and row["minimal"] is True


def test_check_filling_builds_the_users_table_once(monkeypatch):
    table = StringConfiguration.index_users  # the cached_property itself
    build, builds = table.func, []
    monkeypatch.setattr(table, "func", lambda cfg: builds.append(cfg) or build(cfg))
    check_filling((2, 2, 2, 3), (2, 2, 1, 3))
    assert len(builds) == 1


def test_check_filling_forced_failure(monkeypatch, capsys):
    monkeypatch.setattr(lattice, "validate_string_lemma", lambda cfg: False)
    with pytest.raises(ConsistencyViolated) as info:
        check_filling((2, 2, 2, 3), (2, 2, 1, 3))
    assert "string_lemma" in str(info.value)
    assert "n=(2, 2, 1, 3)" in str(info.value)
    assert cli.main(["lattice-check", "9", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "theorem violation" in err and "string_lemma" in err
