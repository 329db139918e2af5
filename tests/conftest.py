"""Shared test helpers: random ensembles and the acceptance summary."""

import numpy as np
import pytest
from hypothesis import strategies as st

from catassoc import (
    BasisReport,
    DataError,
    Dataset,
    ForwardStep,
    NumericDomainError,
    SelectionTrace,
    Variable,
    composite,
    first_pick_tiebreak,
    gk_tau_direct,
    joint_from_counts,
    make_weights,
)
from catassoc.association import _pair_tau
from catassoc.resample import _pair_draws

# ---------------------------------------------------------------------
# random-object generators (seeded by the caller for reproducibility)
# ---------------------------------------------------------------------


def random_joint(rng, nx, ny, zeros=False):
    """Random strictly positive (or optionally sparse) joint distribution."""
    p = rng.random((nx, ny)) + 0.05
    if zeros:
        mask = rng.random((nx, ny)) < 0.25
        if mask.all():
            mask[0, 0] = False
        p = np.where(mask, 0.0, p)
        # keep every marginal positive
        for s in range(ny):
            if p[:, s].sum() == 0:
                p[rng.integers(0, nx), s] = rng.random() + 0.05
        for i in range(nx):
            if p[i].sum() == 0:
                p[i, rng.integers(0, ny)] = rng.random() + 0.05
    return joint_from_counts(p)


def _nonconstant(col):
    return len(set(col)) > 1


def random_triple_dataset(rng, m_range=(8, 40)):
    """Random (X1, X2, Y) dataset with structured relations.

    The modes deliberately produce exact ties (copies, relabelings,
    mergers, functional responses) so that the equivalence levels fire
    nontrivially.
    """
    while True:
        m = int(rng.integers(*m_range))
        k1 = int(rng.integers(2, 5))
        x1 = rng.integers(0, k1, m)
        mode = int(rng.integers(0, 5))
        if mode == 0:  # bijective relabeling
            perm = rng.permutation(k1)
            x2 = perm[x1]
        elif mode == 1:  # coarsening
            k2 = max(2, k1 - 1)
            merge = rng.integers(0, k2, k1)
            x2 = merge[x1]
        elif mode == 2:  # independent
            x2 = rng.integers(0, int(rng.integers(2, 5)), m)
        elif mode == 3:  # exact copy
            x2 = x1.copy()
        else:  # refinement
            x2 = x1 * 2 + rng.integers(0, 2, m)
        ymode = int(rng.integers(0, 4))
        ky = int(rng.integers(2, 4))
        if ymode == 0:  # function of x1
            f = rng.integers(0, ky, k1 + 1)
            y = f[x1]
        elif ymode == 1:  # function of x2
            f = rng.integers(0, ky, int(x2.max()) + 1)
            y = f[x2]
        else:  # random
            y = rng.integers(0, ky, m)
        if _nonconstant(x1) and _nonconstant(x2) and _nonconstant(y):
            return Dataset.from_label_columns({
                "X1": [str(v) for v in x1],
                "X2": [str(v) for v in x2],
                "Y": [str(v) for v in y],
            })


def random_dataset(rng, n_vars=3, m_range=(10, 60), k_range=(2, 5)):
    """Random dataset with independent-ish columns of modest cardinality."""
    while True:
        m = int(rng.integers(*m_range))
        cols = {}
        for j in range(n_vars):
            k = int(rng.integers(*k_range))
            cols[f"V{j}"] = [str(v) for v in rng.integers(0, k, m)]
        if all(_nonconstant(c) for c in cols.values()):
            return Dataset.from_label_columns(cols)


#: Domain size of the ``ID`` column of :func:`coded_datasets`: far more
#: categories than records, so composites holding it are ranked by sorting.
ID_DOMAIN = 5000


@st.composite
def coded_datasets(draw):
    """Small datasets built from code columns: ``V0`` observes every
    category of its domain; other columns may leave categories unobserved,
    may be relabeled copies (so scores tie), and may include an ``ID``
    column with a large domain.  Records arrive C- or F-ordered."""
    m = draw(st.integers(1, 40))
    n_vars = draw(st.integers(2, 6))
    sizes, cols = [], []
    for j in range(n_vars):
        k = draw(st.integers(1, 5))
        col = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
        if j == 0:
            observed = sorted(set(col))
            col, k = [observed.index(c) for c in col], len(observed)
        elif draw(st.booleans()):  # relabeled copy of an earlier column
            src = draw(st.integers(0, j - 1))
            k = sizes[src]
            perm = draw(st.permutations(range(k)))
            col = [perm[c] for c in cols[src]]
        sizes.append(k)
        cols.append(col)
    names = [f"V{j}" for j in range(n_vars)]
    if draw(st.booleans()):
        cols.append(draw(st.lists(st.integers(0, ID_DOMAIN - 1),
                                  min_size=m, max_size=m)))
        sizes.append(ID_DOMAIN)
        names.append("ID")
    records = np.array(cols, dtype=np.int64).T
    records = (np.asfortranarray if draw(st.booleans()) else np.ascontiguousarray)(records)
    variables = [Variable(nm, tuple(str(c) for c in range(k)))
                 for nm, k in zip(names, sizes)]
    return Dataset(variables, records)


#: Domain sizes of the :func:`mixed_domain_dataset` tables at scale.
MIXED_SIZES = (300, 2, 3, 4, 5, 6, 7, 8, 30, 40)


def mixed_domain_dataset(rng, m, sizes):
    """Response ``Y`` of 3 categories and columns ``X0``, ``X1``, ... of
    ``sizes`` categories, in a random column order.  ``Y`` leans on the
    columns of the first two sizes, and the column of the last size may be
    a relabeled copy of the first (so scores tie): a search takes several
    steps."""
    sizes = list(sizes)
    cols = [rng.integers(0, k, m) for k in sizes]
    if rng.random() < 0.5:
        sizes[-1], cols[-1] = sizes[0], rng.permutation(sizes[0])[cols[0]]
    y = np.where(rng.random(m) < 0.8, (cols[0] + cols[1]) % 3, rng.integers(0, 3, m))
    order = rng.permutation(len(cols))
    variables = [Variable("Y", ("0", "1", "2"))]
    variables += [Variable(f"X{j}", tuple(map(str, range(sizes[i]))))
                  for j, i in enumerate(order)]
    return Dataset(variables, np.column_stack([y] + [cols[i] for i in order]))


@st.composite
def mixed_domain_datasets(draw):
    """Tables of :func:`mixed_domain_dataset` with 30-400 records, 3-8
    columns of 2-8 categories and 1-3 of 9-300: a forward step counts
    several groups of small candidates, and a wide candidate alone, sorted
    where its pairs are too many to count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(9, 300), min_size=1, max_size=3))
    sizes += draw(st.lists(st.integers(2, 8), min_size=3, max_size=8))
    return mixed_domain_dataset(rng, draw(st.integers(30, 400)), sizes)


# Slow scorers: they share no encoding or counting code with the library,
# only the kernels that turn a count table into a score.

def slow_cells(ds, xs):
    """Each record's cell among the observed code rows of ``xs``, in sorted
    row order."""
    cols = np.stack([ds.codes(nm) for nm in xs], 1)
    _, inverse = np.unique(cols, axis=0, return_inverse=True)
    return inverse.ravel()


def slow_weights(ds, y, scheme):
    """Weights of a named scheme from the response's plug-in marginal."""
    counts = np.bincount(ds.codes(y), minlength=ds.var(y).size)
    return make_weights(scheme, p_y=counts / ds.n_records)


def table_pairs(counts):
    """The nonzero entries of a count table as (n_is, n_i, s) pairs in
    row-major order, the input of the library's pair kernel."""
    i, s = np.nonzero(counts)
    return counts[i, s], counts.sum(axis=1)[i], s


def slow_tau(ds, y, xs, weights):
    """Association degree of ``y`` given the composite of ``xs``."""
    cells, n_y = slow_cells(ds, xs), ds.var(y).size
    n_x = int(cells.max()) + 1
    counts = np.bincount(cells * n_y + ds.codes(y),
                         minlength=n_x * n_y).reshape(n_x, n_y)
    return _pair_tau(table_pairs(counts), ds.var(y).domain, weights)


def slow_ep(ds, xs):
    """Sum of squared plug-in probabilities of the composite of ``xs``."""
    p = np.bincount(slow_cells(ds, xs)) / ds.n_records
    return float(p @ p)


def slow_table(cells, target):
    """Dense count table of observed cells (rows) against the observed
    values of ``target`` (columns)."""
    _, t = np.unique(target, return_inverse=True)
    n_x, n_y = int(cells.max()) + 1, int(t.max()) + 1
    return np.bincount(cells * n_y + t, minlength=n_x * n_y).reshape(n_x, n_y)


def slow_determination(cells, target, eps):
    """Goodman-Kruskal tau >= 1 - eps, and every conditional within eps
    of 0 or 1, from the dense table of ``target`` given ``cells``.  A table
    with one value per row is determined at any eps, also at 0, where a
    float tau of such a table may fall an ulp short of 1."""
    counts = slow_table(cells, target)
    cond = counts / counts.sum(axis=1, keepdims=True)
    conditionals_01 = bool(np.all((cond <= eps) | (cond >= 1.0 - eps)))
    determined = (counts.shape[1] < 2 or bool(((counts > 0).sum(axis=1) == 1).all())
                  or (eps > 0 and gk_tau_direct(joint_from_counts(counts)) >= 1.0 - eps))
    return determined, conditionals_01


def reference_population_joint(pop, xs, y):
    """Two-way joint of a population's composite of ``xs`` against ``y``,
    from np.unique over the support cells' code tuples and an np.add.at
    scatter of their probabilities: the path the population's joints must
    match bit for bit.  Returns the probabilities and the x labels."""
    sup = pop.support
    rows = np.stack([sup.codes(nm) for nm in xs], axis=1).tolist()
    keys, codes = np.unique([tuple(r) for r in rows], axis=0, return_inverse=True)
    p = np.zeros((len(keys), sup.var(y).size))
    np.add.at(p, (codes.ravel(), sup.codes(y)), pop.probs)
    domains = [sup.var(nm).domain for nm in xs]
    x_domain = tuple(tuple(d[k] for d, k in zip(domains, key)) for key in keys.tolist())
    return p / p.sum(), x_domain


def reference_verify_basis(ds, basis, eps, subset_samples=32, seed=0):
    """verify_basis from dense tables over np.unique cells, always drawing
    the subsets: the slow path the pair counts must match."""
    names = list(ds.names)
    cells_b = slow_cells(ds, basis)
    verdicts = [slow_determination(cells_b, ds.codes(nm), eps) for nm in names]
    rng = np.random.default_rng(seed)
    subsets_ok = True
    for _ in range(min(subset_samples, 2 ** len(names) - 1)):
        k = int(rng.integers(1, len(names) + 1))
        pick = sorted(rng.choice(len(names), size=k, replace=False).tolist())
        if not slow_determination(cells_b, slow_cells(ds, [names[i] for i in pick]), eps)[0]:
            subsets_ok = False
            break
    minimal = True
    for v in basis:
        rest = [nm for nm in basis if nm != v]
        cells = slow_cells(ds, rest) if rest else np.zeros(ds.n_records, dtype=np.int64)
        if all(slow_determination(cells, ds.codes(nm), eps)[0] for nm in names):
            minimal = False
            break
    return BasisReport(tuple(basis), {nm: d for nm, (d, _) in zip(names, verdicts)},
                       subsets_ok, all(c for _, c in verdicts), minimal)


def reference_forward_backward(ds, candidates, score_set, minimize, start,
                               eps, metric):
    """Greedy forward-backward search that scores every candidate set from
    scratch with ``score_set``: the slow path the search drivers must match."""
    chosen, steps, current = [], [], start
    remaining = list(candidates)
    while remaining:
        scores = {c: score_set(chosen + [c]) for c in remaining}
        best = min(scores.values()) if minimize else max(scores.values())
        pick = first_pick_tiebreak(ds, [c for c in remaining if scores[c] == best])
        gain = current - best if minimize else best - current
        if chosen and gain <= eps:
            break
        chosen.append(pick)
        remaining.remove(pick)
        steps.append(ForwardStep(pick, best, scores))
        current = best
    kept, pruned = list(chosen), []
    for v in reversed(chosen):
        if len(kept) <= 1:
            break
        trial = [nm for nm in kept if nm != v]
        val = score_set(trial)
        if abs(current - val) <= eps:
            kept, current = trial, val
            pruned.append(v)
    return SelectionTrace(tuple(steps), tuple(pruned), tuple(kept), current,
                          metric=metric)


def reference_structural(ds, eps):
    """structural_basis with every candidate set scored by the slow scorer."""
    return reference_forward_backward(
        ds, list(ds.names), lambda vs: slow_ep(ds, vs),
        minimize=True, start=1.0, eps=eps, metric="ep")


def count_replicates(ds, y, fullset, B, seed):
    """The record sets the count-level replicates of ``count_bootstrap`` stand
    for: each observed (full-set cell, response) pair's first record, repeated
    as often as the replicate counts the pair."""
    n_y = ds.var(y).size
    keys = composite(ds, fullset).codes * n_y + ds.codes(y)
    _, first, n_is = np.unique(keys, return_index=True, return_counts=True)
    for counts in _pair_draws(n_is, ds.codes(y)[first], n_y, B, seed):
        for row in counts:
            yield ds.take(np.repeat(first, row))


def outcome(run):
    """The result of ``run()``, or the type and message of its data or
    numeric-domain error."""
    try:
        return run()
    except (DataError, NumericDomainError) as e:
        return type(e).__name__, str(e)


def align_by_labels(values, domain, wanted):
    """Reorder a vector indexed by ``domain`` into ``wanted`` label order."""
    idx = [list(domain).index(lab) for lab in wanted]
    return np.asarray(values)[idx]


# ---------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run
# ---------------------------------------------------------------------

ACCEPTANCE_RESULTS: dict[str, bool] = {}
ACCEPTANCE_NOTES: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.module.__name__ == "test_acceptance":
        ACCEPTANCE_RESULTS[item.name] = rep.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ACCEPTANCE_RESULTS[name] else "FAIL"
        line = f"[{status}] {name}"
        note = ACCEPTANCE_NOTES.get(name)
        if note:
            line += f"  ({note})"
        terminalreporter.write_line(line)
