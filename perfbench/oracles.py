"""Independent computations that the benchmark checks the program against.

Nothing here imports orbitflow.  The models are restated from their
published definitions (README "Builtin models"), and every count or real
comes from a route that is not the program's:

- bench3 orbit counts by the BEST theorem: roofs are logs of distinct
  primes, so a cycle's length fixes its edge-count vector m; the rooted
  closed walks with that vector are counted by the matrix-tree theorem and
  inverted to prime cycles by Moebius inversion over d | gcd(m);
- necklace closed forms (1/n) sum_{d|n} mu(n/d) k^d for full shifts;
- character sums for abelian quotients: an inverse DFT of tr(A_chi^m);
- direct label products over Lyndon words (Duval's generator) for an
  explicit finite group;
- pressure as the root, found by bisection, of log rho(M(u, s)), with the
  gradient from Perron vectors and the Hessian by central differences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# models, restated

BENCH3_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
BENCH3_EDGES = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
# chords: loops at 1, 2, 3 carry (1,0), (0,1), (1,1); every other edge is a
# tree edge or a null-homologous chord
BENCH3_CLASSES = {e: (0, 0) for e in BENCH3_EDGES}
BENCH3_CLASSES.update({(1, 1): (1, 0), (2, 2): (0, 1), (3, 3): (1, 1)})
BENCH3_CHORDS = {
    (1, 1): (1, 0), (2, 2): (0, 1), (3, 3): (1, 1),
    (1, 3): (0, 0), (2, 1): (0, 0), (3, 1): (0, 0), (3, 2): (0, 0),
}
BENCH3_TREE = ((1, 2), (2, 3))
BENCH3_REMOVED = ((1,), (2,))
BENCH3_ROOF = {e: math.log(p) for e, p in zip(BENCH3_EDGES, BENCH3_PRIMES)}

FULL2_EDGES = ((1, 1), (1, 2), (2, 1), (2, 2))
FULL2_CLASSES = {(1, 1): (0,), (1, 2): (1,), (2, 1): (0,), (2, 2): (1,)}
FULL2_REMOVED = ((2,),)


# ---------------------------------------------------------------------------
# arithmetic

@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def necklaces(k: int, n: int) -> int:
    """Primitive necklaces of length n over k letters: prime cycles of
    period n of the full k-shift."""
    total = sum(mobius(n // d) * k ** d for d in divisors(n))
    assert total % n == 0
    return total // n


def lyndon_words(k: int, n_max: int):
    """Lyndon words over 1..k of length <= n_max, by Duval's successor
    rule (a different generator from the program's necklace DFS)."""
    w = [0]
    while w:
        yield tuple(x + 1 for x in w)
        m = len(w)
        while len(w) < n_max:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1


# ---------------------------------------------------------------------------
# bench3 orbit counts by the BEST theorem

def _det(mat) -> Fraction:
    """Exact determinant by fraction-free elimination on a small matrix."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    return det


def closed_walks_best(m: dict) -> int:
    """Closed walks (sequences, any start) using edge (i, j) exactly
    m[(i, j)] times, by the BEST theorem:
    |m| t(m) prod_v (deg_v - 1)! / prod_e m_e!."""
    m = {e: c for e, c in m.items() if c > 0}
    if not m:
        return 0
    verts = sorted({v for e in m for v in e})
    out = {v: 0 for v in verts}
    inn = {v: 0 for v in verts}
    for (i, j), c in m.items():
        out[i] += c
        inn[j] += c
    if out != inn:
        return 0
    # weak connectivity of the support
    adj = {v: set() for v in verts}
    for (i, j) in m:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        for x in adj[stack.pop()]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    if len(seen) != len(verts):
        return 0
    # arborescences towards verts[0]: reduced out-degree Laplacian (loops
    # drop out of the Laplacian)
    idx = {v: r for r, v in enumerate(verts)}
    k = len(verts)
    lap = [[0] * k for _ in range(k)]
    for (i, j), c in m.items():
        if i != j:
            lap[idx[i]][idx[i]] += c
            lap[idx[i]][idx[j]] -= c
    t = _det([row[1:] for row in lap[1:]]) if k > 1 else Fraction(1)
    total = sum(m.values())
    num = total * int(t)
    for v in verts:
        num *= math.factorial(out[v] - 1)
    den = 1
    for c in m.values():
        den *= math.factorial(c)
    assert num % den == 0
    return num // den


def prime_cycles_best(m: dict) -> int:
    """Prime cycles with edge-count vector m: Moebius inversion of the
    closed-walk counts over d | gcd(m)."""
    g = 0
    for c in m.values():
        g = math.gcd(g, c)
    size = sum(m.values())
    acc = 0
    for d in divisors(g):
        mu = mobius(d)
        if mu:
            acc += mu * closed_walks_best({e: c // d for e, c in m.items()})
    assert acc % size == 0
    return acc // size


def bench3_orbits(t_max: float):
    """Every edge-count vector of bench3 with length <= t_max that carries
    prime cycles, as dicts with keys m, N (the integer e^length), length,
    class and count (prime cycles, the removed orbits excluded)."""
    log_t = t_max
    lp = [math.log(p) for p in BENCH3_PRIMES]
    e12, e13, e21, e23, e31, e32 = (BENCH3_EDGES.index(e) for e in
                                    ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)))
    out = []
    rng = lambda i, used: range(int((log_t - used) / lp[i] + 1e-12) + 1)  # noqa: E731
    for a in rng(e12, 0.0):
        ua = a * lp[e12]
        for b in rng(e13, ua):
            ub = ua + b * lp[e13]
            for c in rng(e21, ub):
                uc = ub + c * lp[e21]
                for d in rng(e23, uc):
                    ud = uc + d * lp[e23]
                    f31 = a + b - c  # balance at vertex 1
                    f32 = c + d - a  # balance at vertex 2
                    if f31 < 0 or f32 < 0:
                        continue
                    ue = ud + f31 * lp[e31] + f32 * lp[e32]
                    if ue > log_t + 1e-12:
                        continue
                    base = {e12: a, e13: b, e21: c, e23: d, e31: f31, e32: f32}
                    for x in rng(0, ue):
                        ux = ue + x * lp[0]
                        for y in rng(4, ux):
                            uy = ux + y * lp[4]
                            for z in rng(8, uy):
                                ms = dict(base)
                                ms.update({0: x, 4: y, 8: z})
                                ms = {i: v for i, v in ms.items() if v}
                                if not ms:
                                    continue
                                length = math.fsum(v * lp[i] for i, v in ms.items())
                                if length > log_t:
                                    continue
                                mm = {BENCH3_EDGES[i]: v for i, v in ms.items()}
                                count = prime_cycles_best(mm)
                                if not count:
                                    continue
                                n_int = 1
                                for i, v in ms.items():
                                    n_int *= BENCH3_PRIMES[i] ** v
                                cls = [0, 0]
                                for e, v in mm.items():
                                    cls[0] += v * BENCH3_CLASSES[e][0]
                                    cls[1] += v * BENCH3_CLASSES[e][1]
                                if mm in ({(1, 1): 1}, {(2, 2): 1}):
                                    count -= 1  # the removed orbits (1), (2)
                                    if not count:
                                        continue
                                out.append({"m": mm, "N": n_int, "length": length,
                                            "class": tuple(cls), "count": count})
    return out


def length_to_integer(length: float) -> int:
    """The integer prod p^m whose log a bench3 cycle length is; exact while
    e^length is far below 2^53 / (relative error of length)."""
    return int(round(math.exp(length)))


# ---------------------------------------------------------------------------
# thermodynamics by bisection

class Thermo:
    """Pressure, gradient and Hessian of a suspension over a small graph,
    with M(u, s) built here from the edge list."""

    def __init__(self, k, edges, roof, classes):
        self.k = k
        self.edges = tuple(edges)
        self.roof = np.array([roof[e] for e in self.edges], dtype=float)
        self.cls = np.array([classes[e] for e in self.edges], dtype=float)
        self.rows = np.array([e[0] - 1 for e in self.edges])
        self.cols = np.array([e[1] - 1 for e in self.edges])

    def matrix(self, u, s):
        m = np.zeros((self.k, self.k))
        m[self.rows, self.cols] = np.exp(self.cls @ np.asarray(u, float) - s * self.roof)
        return m

    def log_radius(self, u, s) -> float:
        return math.log(max(abs(np.linalg.eigvals(self.matrix(u, s)))))

    def pressure(self, u) -> float:
        lo, hi = -1.0, 1.0
        while self.log_radius(u, lo) < 0.0:
            lo = 2.0 * lo - 1.0
        while self.log_radius(u, hi) > 0.0:
            hi = 2.0 * hi + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if self.log_radius(u, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def edge_measure(self, u) -> np.ndarray:
        """Equilibrium edge weights l_i M_ij r_j / lambda at s = P(u)."""
        m = self.matrix(u, self.pressure(u))
        vals, vecs = np.linalg.eig(m)
        top = int(np.argmax(abs(vals)))
        r = np.abs(vecs[:, top])
        vals_t, vecs_t = np.linalg.eig(m.T)
        l = np.abs(vecs_t[:, int(np.argmax(abs(vals_t)))])
        mu = l[self.rows] * m[self.rows, self.cols] * r[self.cols]
        return mu / mu.sum()

    def gradient(self, u) -> np.ndarray:
        mu = self.edge_measure(u)
        return (mu @ self.cls) / (mu @ self.roof)

    def expectation(self, u, phi: np.ndarray) -> float:
        mu = self.edge_measure(u)
        return float(mu @ phi) / float(mu @ self.roof)

    def hessian(self, u, h: float = 1e-5) -> np.ndarray:
        u = np.asarray(u, float)
        d = u.size
        out = np.empty((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            out[:, i] = (self.gradient(u + e) - self.gradient(u - e)) / (2 * h)
        return 0.5 * (out + out.T)

    def solve_u(self, rho, tol: float = 1e-12) -> np.ndarray:
        """u with gradient(u) = rho, by damped Newton from 0."""
        rho = np.asarray(rho, float)
        u = np.zeros(rho.size)
        for _ in range(100):
            r = self.gradient(u) - rho
            if np.abs(r).max() <= tol:
                return u
            step = np.linalg.solve(self.hessian(u), -r)
            t = 1.0
            while t > 1e-6:
                trial = u + t * step
                if np.abs(self.gradient(trial) - rho).max() < np.abs(r).max():
                    break
                t *= 0.5
            u = trial
        raise ArithmeticError(f"oracle dual solve did not converge at rho={rho}")


def bench3_thermo() -> Thermo:
    return Thermo(3, BENCH3_EDGES, BENCH3_ROOF, BENCH3_CLASSES)


def full2_thermo() -> Thermo:
    return Thermo(2, FULL2_EDGES, {e: 1.0 for e in FULL2_EDGES}, FULL2_CLASSES)


def predicted_count(th: Thermo, u, rho, T, delta, alpha) -> float:
    """The growth-law window count at u(rho) = u, from oracle pressure data."""
    u = np.asarray(u, float)
    rho = np.asarray(rho, float)
    p = th.pressure(u)
    entropy = p - float(u @ rho)
    hess_p = th.hessian(u)
    det = abs(1.0 / float(np.linalg.det(hess_p)))
    d = u.size
    window = (1.0 - math.exp(-p * delta)) / p if abs(p) > 1e-12 else delta
    floor = np.floor(T * rho)
    exponent = entropy * T + float(u @ (T * rho - floor)) - float(u @ np.asarray(alpha, float))
    return math.sqrt(det) / (2 * math.pi) ** (d / 2) * window * math.exp(exponent) / T ** (1 + d / 2)


# ---------------------------------------------------------------------------
# hull of the edge ratios (2-d)

def convex_hull(points):
    """Andrew's monotone chain; counter-clockwise, no collinear points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def outside_distance(hull, p) -> float:
    """Largest signed distance of p beyond an edge of a counter-clockwise
    polygon: > 0 means outside."""
    worst = -math.inf
    for a, b in zip(hull, hull[1:] + hull[:1]):
        ex, ey = b[0] - a[0], b[1] - a[1]
        norm = math.hypot(ex, ey)
        worst = max(worst, ((p[0] - a[0]) * ey - (p[1] - a[1]) * ex) / norm)
    return worst


def bench3_edge_ratio_hull():
    return convex_hull([
        (BENCH3_CLASSES[e][0] / BENCH3_ROOF[e], BENCH3_CLASSES[e][1] / BENCH3_ROOF[e])
        for e in BENCH3_EDGES
    ])


# ---------------------------------------------------------------------------
# walk counts by character sums

def abelian_closed_walks(k, edge_classes: dict, moduli, n_max: int):
    """W[m][g] for m = 1..n_max: closed m-step walks whose class sum is g
    in Z_moduli, by the inverse DFT of tr(A_chi^m) over all characters.

    Returns (walks, exact) where walks[m] is an integer array indexed by
    the residues and exact[m] says the float was provably exact there
    (rounding residue <= 0.05 and k^m below 2^52)."""
    moduli = tuple(int(x) for x in moduli)
    grids = np.meshgrid(*[np.arange(n) for n in moduli], indexing="ij")
    chars = np.stack([g.reshape(-1) for g in grids], axis=1)  # (n_chars, d)
    n_chars = chars.shape[0]
    a = np.zeros((n_chars, k, k), dtype=complex)
    for (i, j), c in edge_classes.items():
        phase = sum(chars[:, t] * c[t] / moduli[t] for t in range(len(moduli)))
        a[:, i - 1, j - 1] += np.exp(2j * math.pi * phase)
    power = np.broadcast_to(np.eye(k, dtype=complex), a.shape).copy()
    walks, exact = {}, {}
    for m in range(1, n_max + 1):
        power = power @ a
        tr = np.trace(power, axis1=1, axis2=2).reshape(moduli)
        w = np.fft.fftn(tr).real / n_chars  # sum_chi conj(chi(g)) tr / |G|
        rounded = np.rint(w)
        exact[m] = bool(np.abs(w - rounded).max() <= 0.05 and k ** m < 2 ** 52)
        walks[m] = np.array([int(x) for x in rounded.flat], dtype=object).reshape(moduli)
    return walks, exact


def abelian_prime_counts(walks, moduli, n_max: int):
    """Prime cycles per (period, residue): W(m, g) = sum over q | m and h
    with q h = g of (m / q) P(m / q, h), solved for P period by period."""
    moduli = tuple(int(x) for x in moduli)
    grids = np.meshgrid(*[np.arange(n) for n in moduli], indexing="ij")
    prime = {}
    for m in range(1, n_max + 1):
        acc = walks[m].copy()
        for q in divisors(m)[1:]:
            target = tuple((q * g) % n for g, n in zip(grids, moduli))
            np.add.at(acc, target, -(m // q) * prime[m // q])
        assert all(int(x) % m == 0 for x in acc.flat), "walk counts not divisible"
        prime[m] = acc // m
    return prime


def z2_prime_counts(edge_classes: dict, k: int, n_max: int, box: int):
    """Prime cycles of a unit-roof graph per (period, class in Z^2) for
    classes with coordinates in [0, box): Moebius inversion over the
    simultaneous divisors of (m, beta), from character-sum walk counts.
    Returns (prime, exact) like abelian_closed_walks."""
    walks, exact = abelian_closed_walks(k, edge_classes, (box, box), n_max)
    prime = {}
    for m in range(1, n_max + 1):
        if not exact[m]:
            continue
        table = {}
        for (a, b), w in np.ndenumerate(walks[m]):
            if not w:
                continue
            total = 0
            for d in divisors(math.gcd(m, math.gcd(a, b))):
                mu = mobius(d)
                if mu:
                    total += mu * int(walks[m // d][a // d, b // d])
            assert total % m == 0
            if total:
                table[(a, b)] = total // m
        prime[m] = table
    return prime, exact


# ---------------------------------------------------------------------------
# dihedral group labels

def dihedral_mul(n: int, x, y):
    """(r, f) . (s, g) in D_n: rotations r, reflection flag f."""
    r, f = x
    s, g = y
    return ((r + (s if f == 0 else -s)) % n, f ^ g)


def dihedral_class(n: int, x) -> frozenset:
    elems = [(r, f) for r in range(n) for f in (0, 1)]
    out = set()
    for h in elems:
        hx = dihedral_mul(n, h, x)
        # h x h^-1; a reflection is its own inverse, a rotation's inverse is -r
        inv = ((-h[0]) % n, 0) if h[1] == 0 else h
        out.add(dihedral_mul(n, hx, inv))
    return frozenset(out)


def dihedral_class_counts(n: int, labels: dict, k: int, n_max: int, removed):
    """Prime cycles of period <= n_max of the complete graph on k vertices,
    removed ones excluded, by the conjugacy class of the ordered product of
    edge labels around a Lyndon-word representative."""
    counts = {}
    removed = set(tuple(c) for c in removed)
    for word in lyndon_words(k, n_max):
        if word in removed:
            continue
        x = (0, 0)
        t = len(word)
        for i in range(t):
            x = dihedral_mul(n, x, labels[(word[i], word[(i + 1) % t])])
        counts[x] = counts.get(x, 0) + 1
    by_class = {}
    for x, c in counts.items():
        key = dihedral_class(n, x)
        by_class[key] = by_class.get(key, 0) + c
    return by_class


# ---------------------------------------------------------------------------
# full2 closed forms

def full2_pressure(u: float) -> float:
    return math.log1p(math.exp(u))


def full2_dual(rho: float) -> float:
    return math.log(rho / (1.0 - rho))


def binary_entropy(rho: float) -> float:
    return -rho * math.log(rho) - (1.0 - rho) * math.log(1.0 - rho)


def full2_entropy_det(rho: float) -> float:
    return -1.0 / (rho * (1.0 - rho))


def full2_class_count(period: int, ones: int) -> int:
    """Prime cycles of full2 with the given period and class (number of
    edges into vertex 2 = number of 2s in the word)."""
    g = math.gcd(period, ones)
    total = sum(mobius(d) * math.comb(period // d, ones // d) for d in divisors(g))
    return total // period


def full2_total(T: float) -> int:
    """Prime cycles of length <= T on full2, the removed orbit excluded."""
    return sum(necklaces(2, n) for n in range(1, int(math.floor(T)) + 1)) - 1
