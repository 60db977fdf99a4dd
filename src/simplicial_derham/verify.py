"""Named verification suites: exact identity batteries over seeded inputs.

Each suite function returns a JSON-ready report dict with one entry per
identity checked.  The CLI exposes them under ``verify --suite NAME`` and
the test modules drive the same functions, so command-line runs and the
pytest suite cannot drift apart.  All checks are exact: a failure carries
a serialized counterexample instead of a tolerance.
"""

import functools
import itertools
import math
import random

from .rationals import Q
from .ordmaps import (OrdMap, enumerate_shuffles, is_shuffle, operad_left,
                      operad_right, shuffle_count)
from .polyforms import (Poly, FormElt, ThetaElt, theta_top, s_monomial,
                        pairing_sign, _wedge_rows)
from .philocal import PhiElt, delta, delta_prime, delta_dblprime, push_phi, big_pair
from .phiglobal import (PhiChain, CochainForm, phi_boundary, phi_of_chain,
                        global_pair, omega_wedge)
from .monoidal import mu_theta, shuffle_sign, shuffle_product_N, mu_phi
from .sset import DegSimplex, build, nd, surjections, product, _split_args
from . import colimit as co

DEFAULT_SEED = 7
MAX_CASES = 10000  # verify --cases: 50 times the largest suite default

CORPUS = (
    "delta:1", "delta:2", "delta:3",
    "boundary:2", "boundary:3",
    "sphere:1", "sphere:2",
    "product:(sphere:1,sphere:1)",
    "product:(delta:1,delta:1)",
)


# ---------------------------------------------------------------------------
# seeded generators (shared with the test suite)

def _rand_exps(rng, n, hi):
    """Exponents on ``n`` coordinates: ``randint(0, hi)`` unit steps, each at random."""
    e = [0] * n
    for _ in range(rng.randint(0, hi)):
        if n:
            e[rng.randrange(n)] += 1
    return tuple(e)


def rand_poly(rng, n, deg=3, terms=3):
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = _rand_exps(rng, n, deg)
        out[e] = out.get(e, 0) + rng.randint(-4, 4)
    return Poly(n, {e: c for e, c in out.items() if c})


def rand_form(rng, n, d, deg=2, terms=2):
    if d > n:
        return FormElt.zero(n)
    out = {}
    for _ in range(rng.randint(1, terms)):
        S = tuple(sorted(rng.sample(range(1, n + 1), d)))
        key = (_rand_exps(rng, n, deg), S)
        out[key] = out.get(key, 0) + rng.randint(-3, 3)
    return FormElt(n, out)


def rand_phielt(rng, n, m, weight_cap=4, comps=2):
    out = {}
    for _ in range(rng.randint(1, comps)):
        size = rng.randint(m + 1, n + 1)
        J = tuple(sorted(rng.sample(range(n + 1), size)))
        k = size - 1
        S = tuple(sorted(rng.sample(range(1, k + 1), m))) if m else ()
        terms = out.setdefault(J, {})
        key = (_rand_exps(rng, k, max(0, weight_cap - m)), S)
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return PhiElt(n, m, {J: ThetaElt(len(J) - 1, t) for J, t in out.items()})


def rand_phichain(rng, X, d, weight=3, terms=3):
    chain = {}
    pool = [r for r in X.all_nd_refs() if r[0] >= d]
    if not pool:
        return PhiChain.zero(X, d)
    for _ in range(terms):
        ref = rng.choice(pool)
        n = ref[0]
        S = tuple(sorted(rng.sample(range(1, n + 1), d)))
        key = (ref, (_rand_exps(rng, n, max(0, weight - d)), S))
        chain[key] = chain.get(key, 0) + rng.randint(-3, 3)
    return PhiChain(X, d, {k: c for k, c in chain.items() if c})


# One space per builder name, one product per pair of spaces and one key pool
# per (space, |A|, level) for the process, bounded by the suites' space lists.
@functools.lru_cache(maxsize=None)
def _space(name):
    if name.startswith("product:"):
        return _product(*map(_space, _split_args(name[len("product:("):-1])))
    return build(name)


_product = functools.lru_cache(maxsize=None)(lambda X, Y: product(X, Y))


@functools.lru_cache(maxsize=None)
def _uelt_keys(X, m, lvl):
    keys = []
    for ds in [nd(ref) for ref in X.nd_refs(lvl)] + X.degenerate_simplices(lvl):
        covered = ds.surj.jumps()
        free = [j for j in range(1, lvl + 1) if j not in covered]
        keys.extend((jumps, ds) for jumps in itertools.permutations(free, m)
                    if co._covers(jumps, ds))
    return tuple(keys)


def rand_uelt(rng, X, A, d, terms=2):
    keys = _uelt_keys(X, len(A), d + len(A))
    if not keys:
        return None
    chain = {}
    for k in rng.sample(keys, min(terms, len(keys))):
        chain[k] = rng.randint(-3, 3)
    u = co.UElt(A, X, d, chain)
    return None if u.is_zero() else u


# ---------------------------------------------------------------------------
# report plumbing

def _check(checks, name, results):
    """Run one identity and append its report entry to ``checks``.

    ``results`` yields ``None`` for each passing case and a witness string
    for a failing one; the run stops at the first witness, so a failing
    entry counts the cases run up to and including it.  A check that ran
    no case has shown nothing, so it fails too.
    """
    entry = {"name": name, "cases": 0, "pass": True}
    for witness in results:
        entry["cases"] += 1
        if witness is not None:
            entry["pass"] = False
            entry["counterexample"] = witness
            break
    if not entry["cases"]:
        entry["pass"] = False
        entry["counterexample"] = "no case ran"
    checks.append(entry)


def _report(suite, seed, checks):
    return {
        "suite": suite,
        "seed": seed,
        "cases": sum(c["cases"] for c in checks),
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# suites

def suite_integration(seed=DEFAULT_SEED, cases=200):
    rng = random.Random(seed)
    checks = []

    # ordered-parameter monomials: integral of s^kappa is 1/prod(mu_k)
    def ordered_monomials():
        for n in range(0, 4):
            for total in range(0, 5):
                for kappa in itertools.product(range(5), repeat=n):
                    if sum(kappa) != total:
                        continue
                    mu = 1
                    acc = 0
                    for k in range(1, n + 1):
                        acc += kappa[k - 1] + 1
                        mu *= acc
                    got = s_monomial(n, kappa).integrate()
                    yield None if got == Q(1, mu) else (
                        "n=%d kappa=%r got=%s want=1/%d" % (n, kappa, got, mu))
    _check(checks, "ordered-monomial table (exhaustive n<=3, |kappa|<=4)",
           ordered_monomials())

    # the defining functional kills the relation ideal: integral((1-sum t) f) = 0
    def relation_ideal():
        for _ in range(cases):
            n = rng.randint(0, 3)
            f = rand_poly(rng, n, deg=4)
            raw = f.raw_terms()
            prod = {}
            for e, c in raw.items():
                prod[e] = prod.get(e, 0) + c
                for j in range(n + 1):
                    ee = list(e)
                    ee[j] += 1
                    ee = tuple(ee)
                    prod[ee] = prod.get(ee, 0) - c
            yield (None if Poly.from_raw(n, prod).integrate() == 0
                   else "n=%d f=%r" % (n, f))
    _check(checks, "relation ideal annihilated", relation_ideal())

    # product rule through shuffles
    def product_rule():
        for _ in range(max(1, cases // 2)):
            n = rng.randint(0, 3)
            m = rng.randint(0, min(3, 5 - n))
            f = rand_poly(rng, n, deg=2, terms=2)
            g = rand_poly(rng, m, deg=2, terms=2)
            lhs = f.integrate() * g.integrate()
            rhs = 0
            for zeta, xi in enumerate_shuffles((n, m)):
                rhs += (f.pullback(zeta.values) * g.pullback(xi.values)).integrate()
            yield None if lhs == rhs else "n=%d m=%d f=%r g=%r" % (n, m, f, g)
    _check(checks, "product of integrals via shuffles (n+m<=5)", product_rule())

    return _report("integration", seed, checks)


def suite_adjunction(seed=DEFAULT_SEED, cases=200):
    rng = random.Random(seed)
    checks = []

    # <<delta a, omega>> = (-1)^(d+1) <<a, d omega>>  with a of wedge degree d+1
    def boundary_adjoint():
        for _ in range(cases):
            n = rng.randint(1, 3)
            m = rng.randint(1, n)
            a = rand_phielt(rng, n, m)
            om = rand_form(rng, n, m - 1)
            lhs = big_pair(delta(a), om)
            rhs = (-1) ** m * big_pair(a, om.de_rham_d())
            yield None if lhs == rhs else "n=%d m=%d a=%r om=%r" % (n, m, a, om)
    _check(checks, "boundary adjoint to de Rham d", boundary_adjoint())

    # <<sigma_* a, omega>> = <<a, sigma^* omega>> for arbitrary vertex maps
    def pushforward_adjoint():
        for _ in range(cases):
            n = rng.randint(1, 3)
            n2 = rng.randint(0, 3)
            values = tuple(rng.randint(0, n2) for _ in range(n + 1))
            m = rng.randint(0, min(n, n2) if min(n, n2) else 0)
            a = rand_phielt(rng, n, m)
            om = rand_form(rng, n2, m)
            lhs = big_pair(push_phi(a, values, n2), om)
            rhs = big_pair(a, om.pullback(values))
            yield None if lhs == rhs else "values=%r a=%r om=%r" % (values, a, om)
    _check(checks, "pushforward adjoint to pullback", pushforward_adjoint())

    # Stokes: int grad_x f + sum_i x_i int res_i f = 0 when sum x = 0
    def stokes():
        for _ in range(max(1, cases // 2)):
            n = rng.randint(1, 3)
            f = rand_poly(rng, n, deg=3)
            xs = [rng.randint(-3, 3) for _ in range(n)]
            xs.append(-sum(xs))
            total = f.grad(xs).integrate()
            for i in range(n + 1):
                total += Q(xs[i]) * f.res_at(i).integrate()
            yield None if total == 0 else "n=%d f=%r xs=%r" % (n, f, xs)
    _check(checks, "gradient Stokes identity", stokes())

    return _report("adjunction", seed, checks)


def suite_pushforward(seed=DEFAULT_SEED, cases=200):
    rng = random.Random(seed)
    checks = []

    # integral preservation along surjections
    def integral_preserved():
        for _ in range(cases):
            n = rng.randint(0, 3)
            k = rng.randint(0, n)
            sigma = rng.choice(surjections(n, k))
            f = rand_poly(rng, n, deg=3)
            yield (None if f.pushforward(sigma.values, k).integrate() == f.integrate()
                   else "sigma=%r f=%r" % (sigma.values, f))
    _check(checks, "integral preserved by fibre integration", integral_preserved())

    # projection formula: sigma_*(sigma^*(g) f) = g sigma_*(f)
    def projection_formula():
        for _ in range(cases):
            n = rng.randint(0, 3)
            k = rng.randint(0, n)
            sigma = rng.choice(surjections(n, k))
            f = rand_poly(rng, n, deg=2)
            g = rand_poly(rng, k, deg=2)
            lhs = (g.pullback(sigma.values) * f).pushforward(sigma.values, k)
            rhs = g * f.pushforward(sigma.values, k)
            yield None if lhs == rhs else "sigma=%r f=%r g=%r" % (sigma.values, f, g)
    _check(checks, "projection formula", projection_formula())

    # dual transfer is adjoint to pullback on the wedge side
    def wedge_transfer():
        for _ in range(max(1, cases // 2)):
            n = rng.randint(1, 3)
            k = rng.randint(1, n)
            sigma = rng.choice(surjections(n, k))
            m = rng.randint(0, k)
            a = ThetaElt.zero(n)
            for _ in range(2):
                S = tuple(sorted(rng.sample(range(1, n + 1), m)))
                e = tuple(rng.randint(0, 2) for _ in range(n))
                a = a + ThetaElt.monomial(n, e, S, rng.randint(-3, 3))
            om = rand_form(rng, k, m)
            lhs = a.pushforward(sigma.values, k).pair(om).integrate()
            rhs = a.pair(om.pullback(sigma.values)).integrate()
            yield None if lhs == rhs else "sigma=%r a=%r om=%r" % (sigma.values, a, om)
    _check(checks, "wedge-side transfer adjoint", wedge_transfer())

    return _report("pushforward", seed, checks)


def suite_delta_squared(seed=DEFAULT_SEED, cases=200):
    rng = random.Random(seed)
    elts = []
    for _ in range(cases):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        elts.append(rand_phielt(rng, n, m, weight_cap=4))
    squares = (
        ("derivative piece squares to zero", lambda a: delta_prime(delta_prime(a))),
        ("restriction piece squares to zero",
         lambda a: delta_dblprime(delta_dblprime(a))),
        ("pieces anticommute",
         lambda a: delta_prime(delta_dblprime(a)) + delta_dblprime(delta_prime(a))),
        ("total differential squares to zero", lambda a: delta(delta(a))),
    )
    checks = []
    for name, square in squares:
        _check(checks, name, (None if square(a).is_zero() else repr(a) for a in elts))
    return _report("delta-squared", seed, checks)


def suite_theta(seed=DEFAULT_SEED, cases=200):
    rng = random.Random(seed)
    checks = []

    # closed form of the top class in the difference basis
    _check(checks, "top class closed form (n<=6)", (
        None if theta_top(n).terms == {((0,) * n, tuple(range(1, n + 1))): (-1) ** n}
        else "n=%d" % n
        for n in range(0, 7)))

    # vertex-independence: e_i ^ theta agrees for all i (raw exterior model)
    def vertex_independence():
        for n in range(1, 6):
            base = None
            for i in range(n + 1):
                # e_i ^ (e_0 - e_1) ^ ... ^ (e_{n-1} - e_n)
                rows = [{i: 1}] + [{j - 1: 1, j: -1} for j in range(1, n + 1)]
                acc = _wedge_rows(rows)
                if base is None:
                    base = acc
                yield None if acc == base else "n=%d i=%d" % (n, i)
    _check(checks, "suspension wedge independent of vertex", vertex_independence())

    # pairing table <w_S, ds_T> = pairing_sign(|S|) [S = T], exhaustive n <= 4
    def pairing_table():
        for n in range(0, 5):
            for ms in range(0, n + 1):
                for S in itertools.combinations(range(1, n + 1), ms):
                    for T in itertools.combinations(range(1, n + 1), ms):
                        a = ThetaElt.monomial(n, (0,) * n, S)
                        om = FormElt.monomial(n, (0,) * n, T)
                        got = a.pair(om)
                        want = Poly.const(n, pairing_sign(ms)) if S == T else Poly.zero(n)
                        yield None if got == want else "n=%d S=%r T=%r" % (n, S, T)
    _check(checks, "wedge pairing table (exhaustive n<=4)", pairing_table())

    # transfer naturality on the pairing:  <sigma-transfer a, sigma^* om> = sigma^* <a, om>
    def transfer_naturality():
        for _ in range(max(1, cases // 2)):
            n = rng.randint(1, 3)
            k = rng.randint(1, n)
            sigma = rng.choice(surjections(n, k))
            m = rng.randint(0, k)
            S = tuple(sorted(rng.sample(range(1, k + 1), m)))
            a = ThetaElt.monomial(k, tuple(rng.randint(0, 2) for _ in range(k)), S,
                                  rng.randint(-3, 3))
            om = rand_form(rng, k, m)
            lhs = a.bullet(sigma).pair(om.pullback(sigma.values))
            rhs = a.pair(om).pullback(sigma.values)
            yield None if lhs == rhs else "sigma=%r a=%r om=%r" % (sigma.values, a, om)
    _check(checks, "degeneracy transfer pairing naturality", transfer_naturality())

    # boundary of the top class collapses onto signed facet classes
    def top_boundary():
        for n in range(1, 5):
            lhs = delta(PhiElt.top_class(n))
            rhs = PhiElt.zero(n, n - 1)
            for j in range(n + 1):
                inc = tuple(i for i in range(n + 1) if i != j)
                rhs = rhs + PhiElt.include(n, inc, theta_top(n - 1)).scale(-((-1) ** j))
            yield None if lhs == rhs else "n=%d" % n
    _check(checks, "top class boundary formula (n<=4)", top_boundary())

    return _report("theta", seed, checks)


def suite_monoidal(seed=DEFAULT_SEED, cases=100):
    rng = random.Random(seed)
    checks = []

    # sign of a shuffle via the image of the two top classes, exhaustive n+m<=4
    def top_class_signs():
        for n in range(0, 5):
            for m in range(0, 5 - n):
                for zeta, xi in enumerate_shuffles((n, m)):
                    got = mu_theta(zeta, xi, theta_top(n), theta_top(m))
                    want = theta_top(n + m).scale(shuffle_sign(zeta, xi))
                    yield (None if got.terms == want.terms
                           else "zeta=%r xi=%r" % (zeta.values, xi.values))
    _check(checks, "shuffle sign from top classes (exhaustive n+m<=4)", top_class_signs())

    # pairing identity of the interleaving product
    def interleaving_pairing():
        for _ in range(cases):
            n = rng.randint(0, 2)
            m = rng.randint(0, 2)
            da = rng.randint(0, n)
            db = rng.randint(0, m)
            zeta, xi = rng.choice(enumerate_shuffles((n, m)))
            Sa = tuple(sorted(rng.sample(range(1, n + 1), da)))
            Sb = tuple(sorted(rng.sample(range(1, m + 1), db)))
            a = ThetaElt.monomial(n, tuple(rng.randint(0, 1) for _ in range(n)), Sa,
                                  rng.randint(-2, 2))
            b = ThetaElt.monomial(m, tuple(rng.randint(0, 1) for _ in range(m)), Sb,
                                  rng.randint(-2, 2))
            om = rand_form(rng, n, da, deg=1)
            up = rand_form(rng, m, db, deg=1)
            lhs = mu_theta(zeta, xi, a, b).pair(
                om.pullback(zeta.values).wedge(up.pullback(xi.values)))
            rhs = (a.pair(om).pullback(zeta.values) *
                   b.pair(up).pullback(xi.values)).scale((-1) ** (db * da))
            yield None if lhs == rhs else "zeta=%r xi=%r a=%r b=%r" % (
                zeta.values, xi.values, a, b)
    _check(checks, "interleaving pairing identity", interleaving_pairing())

    spaces = [_space(n) for n in ("delta:1", "delta:2", "sphere:1")]
    runs = max(20, cases // 5)

    # Leibniz for the global product
    def leibniz():
        while True:
            X = rng.choice(spaces)
            Y = rng.choice(spaces)
            da = rng.randint(0, 2)
            db = rng.randint(0, 2)
            a = rand_phichain(rng, X, da)
            b = rand_phichain(rng, Y, db)
            if a.is_zero() or b.is_zero():
                continue
            P = _product(X, Y)
            lhs = phi_boundary(mu_phi(P, a, b))
            rhs = (mu_phi(P, phi_boundary(a), b)
                   + mu_phi(P, a, phi_boundary(b)).scale((-1) ** da))
            yield None if lhs.terms == rhs.terms else "da=%d db=%d" % (da, db)
    _check(checks, "global product Leibniz", itertools.islice(leibniz(), runs))

    # compatibility square: product of simplicial chains vs product of classes
    def comparison_square():
        while True:
            X = rng.choice(spaces)
            Y = rng.choice(spaces)
            dx = rng.randint(0, X.top_dim)
            dy = rng.randint(0, Y.top_dim)
            cx = {r: rng.randint(-2, 2) for r in X.nd_refs(dx)}
            cy = {r: rng.randint(-2, 2) for r in Y.nd_refs(dy)}
            cx = {k: v for k, v in cx.items() if v}
            cy = {k: v for k, v in cy.items() if v}
            if not cx or not cy:
                continue
            P = _product(X, Y)
            lhs = phi_of_chain(P, shuffle_product_N(P, cx, cy), dx + dy)
            rhs = mu_phi(P, phi_of_chain(X, cx, dx), phi_of_chain(Y, cy, dy))
            yield None if lhs.terms == rhs.terms else "dx=%d dy=%d" % (dx, dy)
    _check(checks, "comparison square with the chain-level product",
           itertools.islice(comparison_square(), runs))

    # adjoint product law against wedged forms
    def adjoint_law():
        while True:
            X = rng.choice(spaces)
            Y = rng.choice(spaces)
            da = rng.randint(0, 1)
            db = rng.randint(0, 1)
            a = rand_phichain(rng, X, da)
            b = rand_phichain(rng, Y, db)
            if a.is_zero() or b.is_zero():
                continue
            om = CochainForm(X, da, {r: rand_form(rng, r[0], da, deg=1)
                                     for r in X.all_nd_refs()})
            up = CochainForm(Y, db, {r: rand_form(rng, r[0], db, deg=1)
                                     for r in Y.all_nd_refs()})
            P = _product(X, Y)
            lhs = global_pair(mu_phi(P, a, b), omega_wedge(P, om, up))
            rhs = (-1) ** (db * da) * global_pair(a, om) * global_pair(b, up)
            yield None if lhs == rhs else "da=%d db=%d" % (da, db)
    _check(checks, "adjoint product law", itertools.islice(adjoint_law(), runs))

    return _report("monoidal", seed, checks)


def suite_colimit(seed=DEFAULT_SEED, cases=40):
    rng = random.Random(seed)
    checks = []

    # face-contraction identity, exhaustive d<=3, |A|<=2
    def face_contraction():
        for d in range(1, 4):
            for m in range(0, 3):
                A = tuple(range(1, m + 1))
                for jumps in itertools.product(range(1, d + 1), repeat=m):
                    za = co.z_of(A, jumps, d)
                    for i in range(0, d + 1):
                        nj = co._face_jumps(jumps, d, i)
                        lhs = (ThetaElt.zero(d - 1) if nj is None
                               else co.z_of(A, nj, d - 1).scale((-1) ** i))
                        rhs = za.contract_face(i).scale((-1) ** (m + 1))
                        yield (None if lhs.terms == rhs.terms
                               else "d=%d A=%r jumps=%r i=%d" % (d, A, jumps, i))
    _check(checks, "face-contraction identity (exhaustive d<=3, |A|<=2)",
           face_contraction())

    spaces = [_space(n) for n in ("delta:1", "delta:2", "boundary:2", "sphere:1")]

    # the adjoint comparison is a chain map
    def chain_map():
        while True:
            X = rng.choice(spaces)
            m = rng.randint(0, 2)
            A = tuple(sorted(rng.sample(range(1, 6), m)))
            d = rng.randint(1, 2)
            u = rand_uelt(rng, X, A, d)
            if u is None:
                continue
            yield (None if co.phi_sharp(u.boundary()).terms
                   == phi_boundary(co.phi_sharp(u)).terms
                   else "A=%r d=%d" % (A, d))
    _check(checks, "adjoint comparison chain map", itertools.islice(chain_map(), cases))

    # external product compatible with the global product
    def external_product():
        while True:
            X = rng.choice(spaces)
            Y = rng.choice(spaces)
            ma = rng.randint(0, 1)
            mb = rng.randint(0, 1)
            A = tuple(sorted(rng.sample([1, 3, 5], ma)))
            B = tuple(sorted(rng.sample([2, 4, 6], mb)))
            u = rand_uelt(rng, X, A, rng.randint(0, 2))
            v = rand_uelt(rng, Y, B, rng.randint(0, 2))
            if u is None or v is None:
                continue
            P = _product(X, Y)
            yield (None if co.phi_sharp(co.nu(u, v, P)).terms
                   == mu_phi(P, co.phi_sharp(u), co.phi_sharp(v)).terms
                   else "A=%r B=%r du=%d dv=%d" % (A, B, u.d, v.d))
    _check(checks, "external product square",
           itertools.islice(external_product(), cases))

    # factorization relation among split generators
    def split_generators():
        for name in ("delta:1", "delta:2", "sphere:1"):
            X = _space(name)
            for n in range(0, 3):
                refs = list(X.nd_refs(n))
                if not refs:
                    continue
                x = rng.choice(refs)
                nu_vec = tuple(rng.randint(0, 1) for _ in range(n + 1))
                if sum(nu_vec) > 2:
                    continue
                J = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                rhs = co.zeta(X, x, nu_vec, J)
                lhs = None
                for i in range(n + 1):
                    nv = tuple(c + (1 if k == i else 0) for k, c in enumerate(nu_vec))
                    t = co.zeta(X, x, nv, J).scale(nu_vec[i] + 1)
                    lhs = t if lhs is None else lhs + t
                yield (None if lhs == rhs
                       else "%s x=%r nu=%r J=%r" % (name, x, nu_vec, J))
    _check(checks, "split generator factorization", split_generators())

    # collapse splits: psi . zeta' = id on random chains
    def collapse_section():
        for name in ("delta:1", "delta:2", "boundary:2", "sphere:1", "sphere:2"):
            X = _space(name)
            for d in range(0, 3):
                c = rand_phichain(rng, X, d)
                if c.is_zero():
                    continue
                yield (None if co.psi(co.zeta_prime(c)).terms == c.terms
                       else "%s d=%d" % (name, d))
    _check(checks, "collapse section identity", collapse_section())

    # round trip on classes: zeta'(psi([u])) = [u]
    def class_round_trip():
        while True:
            X = rng.choice(spaces)
            m = rng.randint(0, 2)
            A = tuple(sorted(rng.sample([1, 2, 5], m)))
            u = rand_uelt(rng, X, A, rng.randint(0, 2))
            if u is None:
                continue
            cls = co.StabClass(u)
            yield None if co.zeta_prime(co.psi(cls)) == cls else "A=%r d=%d" % (A, u.d)
    _check(checks, "class round trip", itertools.islice(class_round_trip(), max(1, cases // 2)))

    return _report("colimit", seed, checks)


def suite_ez(seed=DEFAULT_SEED, cases=200):
    rng = random.Random(seed)
    checks = []
    spaces = {name: _space(name) for name in CORPUS}

    # normal forms at each level are pairwise distinct and complete in count
    def normal_forms():
        for name, X in spaces.items():
            for lvl in range(0, X.top_dim + 2):
                degs = list(X.degenerate_simplices(lvl))
                want = 0
                for k in range(0, lvl + 1):
                    want += len(surjections(lvl, k)) * len(X.nd_ids(k))
                yield (None if len(degs) == len(set(degs)) == want
                       else "%s level=%d got=%d want=%d" % (name, lvl, len(degs), want))
    _check(checks, "normal form uniqueness and count", normal_forms())

    # functoriality of simplicial operators through normal forms; a draw
    # that is not a pair of surjections passes vacuously
    def functoriality():
        X = spaces[rng.choice(CORPUS)]
        lvl = rng.randint(0, X.top_dim)
        refs = list(X.nd_refs(lvl))
        if not refs:
            return None
        x = DegSimplex(OrdMap(tuple(range(lvl + 1)), cod=lvl), rng.choice(refs))
        k1 = rng.randint(lvl, lvl + 2)
        vals1 = tuple(sorted(rng.choice(range(lvl + 1)) for _ in range(k1 + 1)))
        if set(vals1) != set(range(lvl + 1)):
            return None
        f = OrdMap(vals1, cod=lvl)
        k2 = rng.randint(k1, k1 + 2)
        vals2 = tuple(sorted(rng.choice(range(k1 + 1)) for _ in range(k2 + 1)))
        if set(vals2) != set(range(k1 + 1)):
            return None
        g = OrdMap(vals2, cod=k1)
        y = X.apply_map(f, x)
        lhs = X.apply_map(g, y)
        comp = OrdMap(tuple(f(g(i)) for i in range(k2 + 1)), cod=lvl)
        rhs = X.apply_map(comp, x)
        return None if lhs == rhs else "f=%r g=%r x=%r" % (f.values, g.values, x)
    _check(checks, "operator functoriality through normal forms",
           (functoriality() for _ in range(cases)))

    return _report("ez", seed, checks)


# only the count check asks for n+m of 7 and 8: keep those out of the cache
_uncached_shuffles = enumerate_shuffles.__wrapped__


def suite_shuffles(seed=DEFAULT_SEED, cases=0):
    checks = []

    # counts match binomial coefficients
    def counts():
        for n in range(0, 9):
            for m in range(0, 9 - n):
                got = len(_uncached_shuffles((n, m)))
                want = math.comb(n + m, n)
                yield (None if got == want
                       else "n=%d m=%d got=%d want=%d" % (n, m, got, want))
    _check(checks, "shuffle counts (n+m<=8)", counts())

    # joint injectivity of every enumerated pair
    _check(checks, "joint injectivity", (
        None if is_shuffle((zeta, xi), (n, m))
        else "zeta=%r xi=%r" % (zeta.values, xi.values)
        for n in range(0, 5)
        for m in range(0, 5 - n)
        for zeta, xi in enumerate_shuffles((n, m))))

    # operadic composition is a bijection on triple shuffles
    def operadic():
        for n in range(0, 5):
            for m in range(0, 5 - n):
                for p in range(0, 7 - n - m):
                    left = set()
                    for zeta, xi in enumerate_shuffles((n + m, p)):
                        for al, be in enumerate_shuffles((n, m)):
                            left.add(operad_left(zeta, xi, al, be))
                    right = set()
                    for zeta, xi in enumerate_shuffles((n, m + p)):
                        for al, be in enumerate_shuffles((m, p)):
                            right.add(operad_right(zeta, xi, al, be))
                    yield (None if len(left) == shuffle_count((n, m, p)) and left == right
                           else "n=%d m=%d p=%d" % (n, m, p))
    _check(checks, "operadic composition bijective (n+m+p<=6)", operadic())

    return _report("shuffles", seed, checks)


REGISTRY = {
    "integration": suite_integration,
    "adjunction": suite_adjunction,
    "pushforward": suite_pushforward,
    "delta-squared": suite_delta_squared,
    "theta": suite_theta,
    "monoidal": suite_monoidal,
    "colimit": suite_colimit,
    "ez": suite_ez,
    "shuffles": suite_shuffles,
}


def run_suite(name, seed=DEFAULT_SEED, cases=None):
    if name not in REGISTRY:
        raise KeyError("unknown suite %r; known: %s" % (name, ", ".join(sorted(REGISTRY))))
    fn = REGISTRY[name]
    if cases is None:
        return fn(seed=seed)
    return fn(seed=seed, cases=cases)
