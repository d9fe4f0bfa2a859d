"""Oscillating subsequences via equidistribution on the torus.

Given angle pairs (omega_i, phi_i), the goal is an increasing psi with
psi(n)/n -> lambda and |cos(psi(n) omega_i + phi_i)| >= epsilon > 0 for
every n and i.  One builder, `build_plan_general`, makes the plan in one
of three modes:

  - rational: every omega_i/pi = c_i/d_i; take psi(n) = n d + a with
    d = lcm(d_i) and a residue a that keeps every |cos| constant and
    nonzero (d omega_i is a multiple of pi);
  - irrational_single: one pair without relations, omega/pi irrational;
    take the n with frac(n omega/pi) in the arc of width 1/2 centred at
    -phi/pi, which forces |cos| >= sqrt(2)/2, and the arc has density 1/2
    (lambda = 2);
  - general: every other case; rational parts fix a residue class mod d,
    irrational parts are driven through a torus box chosen so every
    cosine argument keeps a positive distance to pi/2 mod pi.

Angles are carried exactly as (rational multiple of pi) + (rational
addend); named constants are pinned to one canonical 120-digit rational
approximation at parse time, and every angle/pi reads 1/pi at that same
120-digit pin, widened for an addend of more than 87 integer digits so
that the pin's error stays below 10^-33.  That makes every decision in
this module a deterministic exact-rational comparison.  Every cosine that
decides or is reported is evaluated at COS_DIGITS.  One float screen,
`_screened_abs_cos` within `_screen_error`, comes first in both searches
for an extremum: the residue search screens every free residue and
confirms only the few that can hold the largest floor, and `verify_plan`
screens the orbit's cosines and confirms only the few that can be its
minimum.

"Irrational" always means irrational-at-precision: the best approximation
of omega/pi with denominator <= D_MAX misses it by RATIONAL_TOL or more.
The plan records which branch was taken.

Each pair is classified once (`_split_pairs`: its reduced omega/pi = c/d
and the one residue it may exclude), and one enumeration,
`_free_residues`, walks the residues that escape every excluded class.
`build_plan_general` decides the hypothesis by its own search over that
enumeration, and `hypothesis_multi` asks the same enumeration whether
anything is left.  A modulus above D_MAX is a BudgetError.

Both orbit counters, `enumerate_psi` and `kw_density`, read the same
exact integers: `_exact_axes` puts each axis of the box on its own
modulus, so that theta, the arc's low end and its width are all whole
multiples of 1/M_j.  One integer walker, `_orbit_hits`, runs the orbit
n theta mod 1 on those integers for `enumerate_psi` and for `kw_density`
over two or more axes.  It jumps from one hit of the narrowest axis to
the next, by one of the three return times that the three-distance
theorem allows, and reads the other axes only there.  `kw_density` over
one axis counts the same hits with two floor sums (`_floor_sum`) in
O(log M) steps instead of walking.  Every count is exact on the given
rationals, arc ends included.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, islice, product
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BudgetError,
    DomainError,
    HypothesisViolation,
    UndecidableAtPrecision,
)
from .exact import log10_fraction
from .fixedpoint import (
    MAX_COS_WORK_DIGITS,
    FixedReal,
    SlottedValue,
    cos_pi_argument,
    decimal_to_fraction,
    e_fixed,
    inv_pi_fraction,
    pi_fixed,
    sqrt_fixed,
)

CANONICAL_DIGITS = 120
PIN_ERROR_DIGITS = 33  # |addend| * (1/pi pin error) stays below 10^-33
COS_DIGITS = 60
SCREEN_BITS = 200  # the float screen reads angle/pi in units of 2^-200
D_MAX = 10**6  # largest pi-rational denominator, so the residue search's d
RATIONAL_TOL = Fraction(1, 10**30)
BOUNDARY_GUARD = Fraction(1, 10**25)  # shrink-to-reject margin at box edges
KW_MAX_WALK = 10**8  # k_max of a walk over two or more axes
# psi values held in one list: `subseq --count 10^6` takes 2.8-5.9 s and
# 135 MB peak RSS in a fresh CLI process (one or two angle pairs, 2 vCPUs,
# Python 3.11); both grow linearly, so 10^7 would take 30-60 s and 1.3 GB
MAX_PSI_COUNT = 10**6

_CONSTANTS: dict[str, Fraction] = {}


def named_constant(name: str) -> Fraction:
    """Canonical 120-digit rational pin of sqrt2 / e / pi."""
    if not _CONSTANTS:
        _CONSTANTS["sqrt2"] = sqrt_fixed(Fraction(2), CANONICAL_DIGITS).to_fraction()
        _CONSTANTS["e"] = e_fixed(CANONICAL_DIGITS).to_fraction()
        _CONSTANTS["pi"] = pi_fixed(CANONICAL_DIGITS).to_fraction()
    if name not in _CONSTANTS:
        raise DomainError(f"unknown constant {name!r}")
    return _CONSTANTS[name]


class Angle(NamedTuple):
    """pi_mult * pi + addend, both exact rationals."""

    pi_mult: Fraction = Fraction(0)
    addend: Fraction = Fraction(0)

    @classmethod
    def pi_multiple(cls, mult) -> "Angle":
        return cls(Fraction(mult), Fraction(0))

    def scaled(self, k: int) -> "Angle":
        return Angle(self.pi_mult * k, self.addend * k)

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.pi_mult + other.pi_mult, self.addend + other.addend)

    def over_pi(self) -> Fraction:
        """This angle divided by pi, exact when the addend vanishes and
        otherwise with 1/pi at the canonical 120-digit pin, or at
        D + PIN_ERROR_DIGITS digits for an addend of D integer digits, so
        that the pin adds an error below 10^-PIN_ERROR_DIGITS.  BudgetError
        when that pin exceeds MAX_COS_WORK_DIGITS."""
        if self.addend == 0:
            return self.pi_mult
        whole = abs(self.addend.numerator) // self.addend.denominator
        # bit_length, not str(): str() refuses integers past 4300 digits
        int_digits = math.ceil(whole.bit_length() * math.log10(2))
        digits = max(CANONICAL_DIGITS, int_digits + PIN_ERROR_DIGITS)
        if digits > MAX_COS_WORK_DIGITS:
            raise BudgetError(
                f"angle addend of {int_digits} digits needs 1/pi at {digits} "
                f"digits, above the cap {MAX_COS_WORK_DIGITS}"
            )
        return self.pi_mult + self.addend * inv_pi_fraction(digits)

    def value(self) -> Fraction:
        """Numeric value at the canonical 120-digit pi pin."""
        return self.pi_mult * named_constant("pi") + self.addend


def parse_angle(text: str) -> Angle:
    """Restricted grammar: sum of terms `rational [* name]` with names
    pi, sqrt2, e; rationals are p/q or decimal literals."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise DomainError("empty angle expression")
    # split into signed terms at every '+' and at any '-' that follows a
    # value; a sign after the exponent marker of a literal (1e-50) stays
    terms, start = [], 0
    for i, ch in enumerate(cleaned):
        if ch not in "+-" or (
            i >= 2 and cleaned[i - 1] in "eE"
            and (cleaned[i - 2].isdigit() or cleaned[i - 2] == ".")
        ):
            continue
        if ch == "+":
            terms.append(cleaned[start:i])
            start = i + 1
        elif i > 0 and (cleaned[i - 1].isdigit() or cleaned[i - 1].isalpha()):
            terms.append(cleaned[start:i])
            start = i
    terms.append(cleaned[start:])
    total = Angle()
    for term in terms:
        if not term:
            raise DomainError(f"malformed angle expression {text!r}")
        total = total + _parse_term(term, text)
    return total


def _parse_term(term: str, original: str) -> Angle:
    sign = 1
    while term.startswith("-"):
        sign = -sign
        term = term[1:]
    try:
        if "*" in term:
            rat_text, name = term.split("*", 1)
            rat = sign * decimal_to_fraction(rat_text)
        else:
            rat, name = Fraction(sign), term
        if name == "pi":
            return Angle.pi_multiple(rat)
        if name in ("sqrt2", "e"):
            return Angle(Fraction(0), rat * named_constant(name))
        return Angle(Fraction(0), rat * decimal_to_fraction(name))
    except DomainError:
        raise DomainError(f"cannot parse angle term {term!r} in {original!r}") from None


class AnglePair(NamedTuple):
    omega: Angle
    phi: Angle


class CosEvaluator:
    """|cos(k omega + phi)| at COS_DIGITS, with the pi-multiple reduced
    exactly mod 1.

    When omega = (c/q) pi exactly, the reduced argument depends on k mod q
    only, so results are memoised by that integer; the periodic structure
    is then exact, not approximate.  The residue search and `verify_plan`
    call it only for the residues or (psi, pair) that their float screen
    cannot rule out.
    """

    def __init__(self, pair: AnglePair):
        self.pair = pair
        self._period = pair.omega.pi_mult.denominator if pair.omega.addend == 0 else 0
        self._cache: dict[int, FixedReal] = {}

    def abs_cos(self, k: int) -> FixedReal:
        key = k % self._period if self._period else None
        got = self._cache.get(key)
        if got is None:
            om, ph = self.pair.omega, self.pair.phi
            pi_part = (k * om.pi_mult + ph.pi_mult) % 1  # |cos| is pi-periodic
            got = abs(cos_pi_argument(pi_part, k * om.addend + ph.addend, COS_DIGITS))
            if key is not None:
                self._cache[key] = got
        return got


# -- rationality of omega/pi ------------------------------------------


def detect_pi_rational(omega: Angle) -> Optional[Fraction]:
    """omega/pi as a reduced c/d: its best approximation with denominator
    <= D_MAX when that lies within RATIONAL_TOL, else None (irrational at
    this precision).  At most one such fraction is that close, and by
    Legendre's theorem it is a continued-fraction convergent."""
    x = omega.over_pi()
    best = x.limit_denominator(D_MAX)
    return best if abs(x - best) < RATIONAL_TOL else None


# -- hypothesis checking ------------------------------------------------

UNDECIDABLE_BAND = 10**3


PHASE_TOL = Fraction(1, 10**25)


def _excluded_residue(pair: AnglePair, ratio: Fraction) -> Optional[int]:
    """The residue a mod d with a*omega + phi = pi/2 mod pi, for
    omega/pi = c/d reduced, or None.

    The condition is a*c/d + phi/pi - 1/2 in Z, i.e. a*c = e (mod d) where
    e = d*(1/2 - phi/pi): no solution unless e is an integer, and exactly
    one then, since gcd(c, d) = 1.
    """
    c, d = ratio.numerator, ratio.denominator
    e_real = d * (Fraction(1, 2) - pair.phi.over_pi())
    e0 = round(e_real)
    dist = abs(e_real - e0)
    if PHASE_TOL / UNDECIDABLE_BAND < dist < PHASE_TOL * UNDECIDABLE_BAND:
        raise UndecidableAtPrecision(
            f"phase congruence: distance {float(dist):.3e} sits on the "
            f"decision boundary (tolerance {float(PHASE_TOL):.0e})"
        )
    if dist >= PHASE_TOL:
        return None
    return e0 * pow(c, -1, d) % d  # d = 1 (omega = 0 mod pi) gives 0


RationalEntry = tuple[AnglePair, Fraction, Optional[int]]


def _split_pairs(
    pairs: Sequence[AnglePair],
) -> tuple[list[RationalEntry], list[AnglePair]]:
    """Classify each pair once, in order: the pi-rational ones with their
    reduced omega/pi and excluded residue, and the pi-irrational ones."""
    rational: list[RationalEntry] = []
    irrational: list[AnglePair] = []
    for pair in pairs:
        ratio = detect_pi_rational(pair.omega)
        if ratio is None:
            irrational.append(pair)
        else:
            rational.append((pair, ratio, _excluded_residue(pair, ratio)))
    return rational, irrational


def _free_residues(rational: Sequence[RationalEntry]):
    """The a in 1..d, d = lcm of the omega/pi denominators, outside every
    excluded class; BudgetError when d exceeds D_MAX."""
    d = math.lcm(*(ratio.denominator for _, ratio, _ in rational))
    if d > D_MAX:
        raise BudgetError(
            f"residue search modulus {d} exceeds {D_MAX} (lcm of the "
            "pi-rational denominators)"
        )
    excluded = [(r.denominator, e) for _, r, e in rational if e is not None]
    for a in range(1, d + 1):
        if all(a % q != e for q, e in excluded):
            yield a


def hypothesis_multi(pairs: Sequence[AnglePair]) -> bool:
    """Do infinitely many n satisfy n omega_i + phi_i != pi/2 mod pi for
    every i at once?

    Pi-irrational omegas exclude at most one n each, so only the rational
    ones matter: they exclude full residue classes, and the answer is
    whether some class mod lcm(d_i) escapes them all.
    """
    rational, _ = _split_pairs(pairs)
    excluding = [entry for entry in rational if entry[2] is not None]
    if sum(Fraction(1, ratio.denominator) for _, ratio, _ in excluding) < 1:
        return True  # the excluded classes cannot cover all residues
    return next(_free_residues(excluding), None) is not None


# -- plans ---------------------------------------------------------------


class TorusBox(SlottedValue):
    """Product of arcs [center_i - eta, center_i + eta] on (R/Z)^s."""

    __slots__ = ("center", "eta")

    def __init__(self, center: tuple[Fraction, ...], eta: Fraction):
        if not (0 < eta < Fraction(1, 2)):
            raise DomainError("box half-width must lie in (0, 1/2)")
        self.center, self.eta = center, eta

    @property
    def dimension(self) -> int:
        return len(self.center)


class SubsequencePlan(NamedTuple):
    """Everything needed to enumerate psi(n) = big_d * psi0(n) * d + a."""

    mode: str  # "rational" | "irrational_single" | "general"
    d: int = 1
    a: int = 0
    big_d: int = 1  # the integer clearing the relation coefficients
    box: Optional[TorusBox] = None
    theta: tuple[Fraction, ...] = ()
    epsilon: Fraction = Fraction(0)
    lambda_predicted: Fraction = Fraction(1)


def _arc_floor(distance: Fraction) -> Fraction:
    """A lower bound of |cos x| for every x at least distance * pi from
    pi/2 mod pi: sin(pi distance) = cos(pi (distance - 1/2)) at COS_DIGITS,
    less 10^-40."""
    arc = cos_pi_argument(distance - Fraction(1, 2), 0, COS_DIGITS)
    return arc.to_fraction() - Fraction(1, 10**40)


class RelationData(NamedTuple):
    """Caller-supplied rational dependencies omega_i/pi = r_{i,0} +
    sum_j r_{i,j} theta_j over a generator list theta_1..theta_s.

    The package does not hunt for integer relations itself; it only
    verifies the supplied ones numerically (residual below 10^-20).
    """

    generators: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]  # each row: (r_0, r_1, ..., r_s)


ETA_GRID = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))
# product points one box search may try, about 1.2 us each (2 vCPUs, Python 3.11)
BOX_MAX_CENTERS = 10**6


def _box_search(
    int_rows: list[list[int]], phases: list[Fraction]
) -> tuple[TorusBox, Fraction]:
    """Find a box avoiding every singular hyperplane with margin eta/2.

    Constraint for row i with integer coefficients v_ij and phase p_i:
    distance of sum_j v_ij z_j + p_i - 1/2 to the integers must exceed
    eta * sum_j |v_ij| + eta/2, so every point of the box keeps distance
    > eta/2 and the cosine floor is sin(pi eta / 2).  Axis j keeps the grid
    values its rows admit (the rows reading no axis but j); the product of
    those lists, axis 0 fastest, keeps the grid's index order, so its first
    point meeting the other rows is the grid's first admissible centre.

    A centre is tested in integers: with z_j = k_j / grid and D = lcm(grid,
    den p_i), row i reads x = sum_j v_ij k_j D/grid + p_i D - D/2 (grid is
    even), and its distance min(x mod D, D - x mod D) must exceed
    floor((eta sum_j |v_ij| + eta/2) D).
    """
    s = len(int_rows[0])
    rows = [(r, sum(map(abs, r)), p) for r, p in zip(int_rows, phases)]
    axis_rows = [[x for x in rows if not any(x[0][:j] + x[0][j + 1:])] for j in range(s)]
    # read against the product's points, which list axis 0 last
    joint = [(r[::-1], w, p) for r, w, p in rows if sum(map(bool, r)) > 1]
    budget = BOX_MAX_CENTERS

    def admissible(point, tested):
        for row, offset, bound, big in tested:
            x = (sum(map(operator.mul, row, point)) + offset) % big
            if min(x, big - x) <= bound:
                return False
        return True

    for eta in ETA_GRID:
        grid, margin = 2 * math.ceil(1 / eta), eta / 2

        def on_grid(tested):  # (coefficients, offset, bound, D) per row
            out = []
            for row, w, phase in tested:
                big = math.lcm(grid, phase.denominator)
                out.append(([v * (big // grid) for v in row],
                            phase.numerator * (big // phase.denominator) - big // 2,
                            math.floor((eta * w + margin) * big), big))
            return out

        lists = [[k for k in range(grid) if admissible([k] * s, tested)]
                 for tested in map(on_grid, axis_rows)]
        tested = on_grid(joint)
        for point in product(*reversed(lists)):
            budget -= 1
            if budget < 0:
                raise BudgetError(
                    f"torus box search tried {BOX_MAX_CENTERS} centers without "
                    f"an admissible one ({s} generators, eta = {eta})")
            if admissible(point, tested):
                return TorusBox(tuple(Fraction(k, grid) for k in point[::-1]), eta), margin
    raise BudgetError(
        "no admissible torus box found down to eta = 1/32; the relation "
        "coefficients are too steep for the default grid"
    )


def build_plan_general(
    pairs: Sequence[AnglePair],
    relations: Optional[RelationData] = None,
) -> SubsequencePlan:
    """The subsequence plan for one or several angle pairs.

    Every pair is classified once.  The pi-rational pairs fix psi = n d + a
    with d = lcm(d_i): a in 1..d is the smallest residue outside every
    excluded class that maximises the least |cos(a omega_i + phi_i)|, which
    does not depend on n because d omega_i is a multiple of pi.  When no
    residue is left that search raises HypothesisViolation, which happens
    exactly when `hypothesis_multi` is False (d is a multiple of its
    modulus), so every returned plan comes with the hypothesis decided
    true; d above D_MAX raises BudgetError.

    The search screens each free residue r in floats first, like
    `verify_plan`: pair i's `_screened_abs_cos` is read at r itself, unless
    omega_i has no addend and its exact pi-multiple has a denominator q_i
    below d (`CosEvaluator`'s period): then the pair repeats with period
    q_i, and is read from one table of its q_i values at r mod q_i.  A
    detected d_i need not be that period (1/3 + 10^-40 is detected as 1/3,
    but has none below d).  Every screened value lies within delta =
    `_screen_error(d)` of its COS_DIGITS value, so a residue whose
    COS_DIGITS floor is the maximum V* screens at least V* - delta, and
    none screens above V* + delta.  The least free residue and those that
    screen within 2 delta of the best are confirmed at COS_DIGITS in
    increasing order, which gives the a and epsilon of a loop over every
    free residue.  As in `verify_plan`, a candidate's floor reads only the
    pairs that screen within 2 delta of its screened floor: any other
    pair's COS_DIGITS value exceeds that of the pair screening least.

    Without pi-irrational pairs that is the plan (mode "rational", lambda =
    d).  One pi-irrational pair without
    relations gets the arc of half-width 1/4 centred at -phi/pi (mode
    "irrational_single"): |cos| >= sqrt(2)/2, and the arc measure 1/2 gives
    lambda = 2.  Otherwise the irrational pairs, transformed to
    (d omega_i, a omega_i + phi_i), are driven through a torus box on the
    generators theta_j (mode "general").  Without caller-supplied relations
    the generators are the transformed omega_i/pi themselves, one for each
    distinct value mod 1, and each row reads its own generator plus an
    integer; when all values differ that is the identity relation matrix.
    """
    pairs = list(pairs)
    if not pairs:
        raise DomainError("need at least one angle pair")
    rational, irrational = _split_pairs(pairs)

    if irrational and len(pairs) == 1 and relations is None:
        pair = irrational[0]
        center = (-pair.phi.over_pi()) % 1
        return SubsequencePlan(
            mode="irrational_single",
            box=TorusBox((center,), Fraction(1, 4)),
            theta=(pair.omega.over_pi(),),
            epsilon=_arc_floor(Fraction(1, 4)),
            lambda_predicted=Fraction(2),
        )

    # residue class for the rational part; every |cos| is a COS_DIGITS
    # FixedReal, so floors compare as their scaled integers
    if rational:
        d = math.lcm(*(ratio.denominator for _, ratio, _ in rational))
        evaluators = [CosEvaluator(pair) for pair, _, _ in rational]
        residues = _free_residues(rational)
        a = next(residues, None)
        if a is None:
            raise HypothesisViolation("no residue class avoids all pi/2 congruences")
        # the least free residue is confirmed before any screen, so that an
        # argument past the cosine's MAX_COS_WORK_DIGITS raises there
        best_floor = min(ev.abs_cos(a).scaled for ev in evaluators)
        screens = []
        for pair, _, _ in rational:
            w, b, q = *_screen_terms(pair), pair.omega.pi_mult.denominator
            if pair.omega.addend or q >= d:  # nothing repeats within d to tabulate
                screens.append(lambda r, w=w, b=b: _screened_abs_cos(w, b, r))
            else:  # exact period q in r, as in CosEvaluator's memo
                table = [_screened_abs_cos(w, b, k) for k in range(q)]
                screens.append(lambda r, t=table, q=q: t[r % q])
        # the residues screening within 2 delta of the best, streamed, and
        # their screened values, side by side in flat arrays (imported here,
        # as density and plans with no pi-rational pair never need array)
        from array import array

        band, top, near, screened = 2 * _screen_error(d), -1.0, array("q"), array("d")
        for r in residues:
            s = min(screen(r) for screen in screens)
            if s > top:
                top, keep = s, [x >= s - band for x in screened]
                near, screened = array("q", compress(near, keep)), array("d", compress(screened, keep))
            if s >= top - band:
                near.append(r)
                screened.append(s)
        for r, s in zip(near, screened):  # a pair screening above s + 2 delta is not r's least
            floor = min(ev.abs_cos(r).scaled for ev, screen in zip(evaluators, screens)
                        if screen(r) <= s + band)
            if floor > best_floor:
                a, best_floor = r, floor
        rational_floor = Fraction(best_floor, 10**COS_DIGITS)
        if rational_floor < Fraction(1, 10**30):
            raise HypothesisViolation("all residue classes are excluded")
    else:
        d, a = 1, 0
        rational_floor = None

    if not irrational:
        return SubsequencePlan(
            mode="rational",
            d=d,
            a=a,
            epsilon=rational_floor,
            lambda_predicted=Fraction(d),
        )

    # transformed irrational system: omega' = d omega, phi' = a omega + phi
    transformed = [
        AnglePair(p.omega.scaled(d), p.omega.scaled(a) + p.phi)
        for p in irrational
    ]
    if relations is None:  # one generator per value mod 1, the first omega'/pi met
        omegas = [tp.omega.over_pi() for tp in transformed]
        theta = tuple(w for i, w in enumerate(omegas) if all((w - t) % 1 for t in omegas[:i]))
        rows = [[w - t] + [Fraction(int(u == t)) for u in theta]  # t: w's generator
                for w in omegas for t in theta if (w - t) % 1 == 0]
    else:
        if len(relations.rows) != len(irrational):
            raise DomainError(
                f"relation data has {len(relations.rows)} rows but there are "
                f"{len(irrational)} pi-irrational pairs"
            )
        if not relations.generators:
            raise DomainError("relation data needs at least one generator")
        theta = tuple(Fraction(t) for t in relations.generators)
        for j, t in enumerate(theta):
            if t in theta[:j]:
                raise DomainError(
                    f"relation generators {theta.index(t) + 1} and {j + 1} are equal"
                )
        rows = []
        for row, original in zip(relations.rows, irrational):
            if len(row) != len(theta) + 1:
                raise DomainError("relation row length must be s + 1")
            target = original.omega.over_pi()
            value = row[0] + sum(r * t for r, t in zip(row[1:], theta))
            residual = abs(target - value)
            if residual > Fraction(1, 10**20):
                try:
                    shown = f"{float(residual):.3e}"
                except OverflowError:  # past the double range
                    shown = f"10^{log10_fraction(residual):.1f}"
                raise DomainError(
                    f"inconsistent relation data: residual {shown} for omega/pi"
                )
            rows.append([d * r for r in row])  # omega' = d omega

    big_d = math.lcm(*(r.denominator for row in rows for r in row))
    int_rows = [[int(big_d * r) for r in row[1:]] for row in rows]
    phases = [tp.phi.over_pi() for tp in transformed]
    box, margin = _box_search(int_rows, phases)
    eps_irr = _arc_floor(margin)
    epsilon = eps_irr if rational_floor is None else min(eps_irr, rational_floor)
    s = box.dimension
    lam = Fraction(d * big_d) / (2 * box.eta) ** s
    return SubsequencePlan(
        mode="general",
        d=d,
        a=a,
        big_d=big_d,
        box=box,
        theta=theta,
        epsilon=epsilon,
        lambda_predicted=lam,
    )


# -- enumeration and verification ----------------------------------------


def _exact_axes(arcs):
    """The integers both orbit counters work on, one axis per (theta, lo,
    width) with 0 <= width < 1: axis j runs mod M_j = den(theta_j) *
    lcm(den(lo_j mod 1), den(width_j)), on which theta_j mod 1, lo_j mod 1
    and width_j are the whole numbers step_j, low_j and w_j.  Then
    frac(n theta_j) lies on the closed arc from lo_j to lo_j + width_j
    (wrapping past 1) exactly when (n step_j - low_j) mod M_j <= w_j.
    Returns the lists (steps, moduli, lows, widths)."""
    steps, moduli, lows, widths = [], [], [], []
    for theta, lo, width in arcs:
        lo = lo % 1
        m = theta.denominator * math.lcm(lo.denominator, width.denominator)
        steps.append(int(theta % 1 * m))  # every product is an exact integer
        moduli.append(m)
        lows.append(int(lo * m))
        widths.append(int(width * m))
    return steps, moduli, lows, widths


def _orbit_hits(steps, moduli, lows, widths, limit):
    """Each n in 1..limit at which every axis j has pos_j = n steps[j] mod
    moduli[j] with (pos_j - lows[j]) mod moduli[j] <= widths[j], on the
    integers of `_exact_axes`, walked from one hit of the narrowest axis to
    the next.

    The lead axis is the one with the least (w + 1)/M, compared exactly;
    shifted by its low end, it hits when 0 <= x <= w and advances x by
    s mod M per n.  By the three-distance theorem for the return times to
    an arc (Sos, Ann. Univ. Sci. Budapest 1, 1958; Slater, Proc. Cambridge
    Philos. Soc. 63, 1967) the gap from one hit to the next is a, b or
    a + b, where a is the least r >= 1 with r s mod M <= w, a forward
    shift da = r s mod M, and b the least r >= 1 with r s mod M = 0 or
    >= M - w, a backward shift db = (M - r s) mod M.  From a hit x:

      - x + da <= w: the next hit is after a, at x + da;
      - otherwise x >= db: after b, at x - db;
      - otherwise after a + b, at x + da - db.

    A return r sooner than that would leave a shift, r - a or r - b, that
    is a shorter forward or backward return.  The classical proof orders
    a <= b, reflecting x -> w - x to swap the roles when b < a.  No
    reflection is needed here: the first two cases both hold only if
    da + db <= w, and a shift da + db in [1, w] would make |a - b| a
    shorter return, while db = 0 makes b the period, so that a <= b and
    the forward case, tested first, is right.

    The first hit, a and b come from one pass over r s mod M that stops
    when all three are found, within the period M / gcd(s, M) for a and
    b, or at r = limit.  One not found is past limit and counts as
    limit + 1 (its shift as w + 1), which ends the walk at the first jump
    that needs it.  So no walk visits more than limit positions plus one
    per jump.

    The second-narrowest axis advances by the jump's r s_1 mod M_1 and is
    read at every lead hit; any further axis is read as (n s - low) mod M
    only where those two hit.  A box of fewer than two axes is padded with
    modulus-1 axes, which always hit.
    """
    axes = sorted(zip(steps, moduli, lows, widths), key=lambda ax: Fraction(ax[3] + 1, ax[1]))
    axes += [(0, 1, 0, 0)] * (2 - len(axes))
    (s, m, low, w), (s1, m1, low1, w1), *rest = axes
    start = -low % m
    n = a = b = limit + 1  # not found yet, and past every n yielded
    da = db = w + 1
    q = 0  # r s mod M
    for r in range(1, limit + 1):
        q += s
        if q >= m:
            q -= m
        if n > limit and (start + q) % m <= w:
            n, x = r, (start + q) % m
        if a > limit and q <= w:
            a, da = r, q
        if b > limit and (q == 0 or q >= m - w):
            b, db = r, -q % m
        if max(n, a, b) <= limit:
            break
    if n > limit:
        return
    ab, below_a, dab = a + b, w - da, da - db
    ja, jb = a * s1 % m1, b * s1 % m1
    jab = (ja + jb) % m1
    x1 = (n * s1 - low1) % m1
    while n <= limit:
        if x1 <= w1 and (not rest or all((n * t - lo) % mod <= wd for t, mod, lo, wd in rest)):
            yield n
        if x <= below_a:
            n += a
            x += da
            x1 += ja
        elif x >= db:
            n += b
            x -= db
            x1 += jb
        else:
            n += ab
            x += dab
            x1 += jab
        if x1 >= m1:
            x1 -= m1


def check_psi_count(count: int) -> None:
    """DomainError for a count below 1, BudgetError for one above
    MAX_PSI_COUNT; cheap enough to run before a plan is built."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if count > MAX_PSI_COUNT:
        raise BudgetError(f"count {count} exceeds the cap of {MAX_PSI_COUNT} psi values")


def enumerate_psi(plan: SubsequencePlan, count: int) -> list[int]:
    """First `count` values of psi, strictly increasing.

    Irrational modes walk the orbit n theta_j mod 1 through the plan's box
    with `_orbit_hits`, on the exact integers of `_exact_axes`.  Axis j is
    the arc from lo = (center_j - h) mod 1 of width 2h, with
    h = eta - BOUNDARY_GUARD; since 0 < 2h < 1, "distance to the centre
    <= h" is exactly "(x - lo) mod 1 <= 2h", the closed arc with the
    shrink-to-reject guard.  The output is identical at every working
    precision.
    """
    check_psi_count(count)
    if plan.mode == "rational":
        return [n * plan.d + plan.a for n in range(1, count + 1)]
    if plan.box is None or not plan.theta:
        raise DomainError("irrational-mode plan lacks its box or generators")
    half = plan.box.eta - BOUNDARY_GUARD
    arcs = [(t, c - half, 2 * half) for t, c in zip(plan.theta, plan.box.center)]
    # lambda / (d big_d) = 1 / box measure: the orbit steps per hit
    cap = 10 * int(plan.lambda_predicted / (plan.d * plan.big_d) + 1) * count + 10**6
    hits = list(islice(_orbit_hits(*_exact_axes(arcs), cap), count))
    if len(hits) < count:
        raise BudgetError(f"orbit scan exceeded {cap} steps with {len(hits)} of {count} "
                          "hits; the box can miss the orbit when the pi-irrational "
                          "omega_i/pi or the relation generators are rationally dependent")
    return [plan.big_d * n * plan.d + plan.a for n in hits]


class PlanVerification(NamedTuple):
    count: int
    min_abs_cos: Fraction
    epsilon: Fraction
    ratio: Fraction
    lambda_predicted: Fraction
    cosine_ok: bool
    lambda_ok: bool

    @property
    def passed(self) -> bool:
        return self.cosine_ok and self.lambda_ok


def _screen_terms(pair: AnglePair) -> tuple[int, int]:
    """omega/pi and phi/pi, read by `Angle.over_pi`, rounded to the nearest
    whole multiples of 2^-SCREEN_BITS."""
    one = 1 << SCREEN_BITS
    return round(pair.omega.over_pi() * one), round(pair.phi.over_pi() * one)


_SCREEN_MASK = (1 << SCREEN_BITS) - 1
_SCREEN_STEP = math.pi / 2**53


def _screened_abs_cos(w: int, b: int, k: int) -> float:
    """|cos(pi t)| in floats for t = (k w + b) 2^-SCREEN_BITS, (w, b) from
    `_screen_terms`: |cos(pi t)| has period 1 in t, so t is reduced mod 1
    in the integers, and its top 53 bits go to math.cos."""
    top = ((k * w + b) & _SCREEN_MASK) >> (SCREEN_BITS - 53)
    return abs(math.cos(top * _SCREEN_STEP))


def _screen_error(k_max: int) -> float:
    """delta: a bound, for 0 <= k <= k_max, on the distance from
    `_screened_abs_cos` to |cos(k omega + phi)| and to its COS_DIGITS value
    from `CosEvaluator.abs_cos`: k_max is psi(count) in `verify_plan` and
    the modulus d in the residue search of `build_plan_general`.

    With t = k omega/pi + phi/pi, each of omega/pi and phi/pi carries the
    1/pi pin error (below 10^-PIN_ERROR_DIGITS) and the rounding to
    2^-SCREEN_BITS (at most half a unit), so the screen's t is off by at
    most (k + 1)(10^-33 + 2^-201); |cos(pi t)| moves by at most pi times
    that.  The rest is under 2^-40: dropping all but 53 bits of t moves
    the cosine by below pi 2^-53; the float product, math.cos and the
    float arithmetic of delta and of 2 delta add a few ulps; the COS_DIGITS
    value sits within 2 10^-60 of the cosine.  Past k_max = 10^34 the first
    term exceeds 1, which already bounds the distance between two numbers
    in [0, 1], so k_max is clipped there before it turns into a float."""
    k = min(k_max, 10**34)
    per_step = 10.0**-PIN_ERROR_DIGITS + 2.0**-SCREEN_BITS
    return math.pi * (k + 1) * per_step + 2.0**-40


def verify_plan(
    plan: SubsequencePlan,
    pairs: Sequence[AnglePair],
    count: int,
) -> PlanVerification:
    """Check the plan's two promises over psi(1..count): the cosine floor
    for every pair, and (psi(count) - a)/count within 5% of the predicted
    lambda.  The offset a is the plan's, so a rational plan, psi(n) =
    n d + a, passes at every count; the reported ratio is psi(count)/count.

    The least |cos(psi omega_i + phi_i)| is the COS_DIGITS value that
    `CosEvaluator.abs_cos` gives at some (psi, pair), the same one an
    exhaustive loop over every (psi, pair) finds, but only a few of them
    are evaluated.  A float screen keeps one column per pair: its
    `_screened_abs_cos` at every psi, each within delta =
    `_screen_error(psi(count))` of its COS_DIGITS value.  If the exhaustive
    minimum v* sits at (psi*, i*) and s is the least screened value, at
    (psi', j), then (psi*, i*) screens at most v* + delta <= v(psi', j) +
    delta <= s + 2 delta.  So the least COS_DIGITS value over psi(1) and the
    (psi, pair) that screen within 2 delta of s is v* itself.
    """
    psi = enumerate_psi(plan, count)
    evaluators = [CosEvaluator(p) for p in pairs]
    columns = [[_screened_abs_cos(w, b, k) for k in psi]
               for w, b in map(_screen_terms, pairs)]
    bound = min(map(min, columns)) + 2 * _screen_error(psi[-1])
    # psi(1) is confirmed whatever it screens, so that an argument past the
    # cosine's MAX_COS_WORK_DIGITS budget raises at the least psi
    least = min(ev.abs_cos(psi[0]).scaled for ev in evaluators)
    for k, row in zip(psi, zip(*columns)):
        for ev, s in zip(evaluators, row):
            if s <= bound:
                least = min(least, ev.abs_cos(k).scaled)
    ratio = Fraction(psi[-1], count)
    min_frac = Fraction(least, 10**COS_DIGITS)
    lam = plan.lambda_predicted
    return PlanVerification(
        count=count,
        min_abs_cos=min_frac,
        epsilon=plan.epsilon,
        ratio=ratio,
        lambda_predicted=lam,
        cosine_ok=min_frac >= plan.epsilon - Fraction(1, 10**30),
        lambda_ok=abs(ratio - Fraction(plan.a, count) - lam) <= lam * Fraction(5, 100),
    )


# -- equidistribution counting -------------------------------------------


class DensityReport(NamedTuple):
    k_max: int
    hits: int
    empirical: float
    predicted: float
    rational_theta: bool  # orbit provably finite within the sample horizon


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i<n} floor((a i + b) / m) for n >= 0, m >= 1 and a, b >= 0, in
    O(log m) steps: split off the whole parts of a/m and b/m, then count
    the lattice points under the remaining line with the roles of a and m
    swapped (Euclid's recursion, unrolled)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b  # every term is now floor((a i + b)/m) < n
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def kw_density(
    theta: Sequence[Fraction],
    box: Sequence[tuple[Fraction, Fraction]],
    k_max: int,
) -> DensityReport:
    """Count n <= k_max with every frac(n theta_i) inside [x_i, y_i].

    The count is exact on the given rationals, arc ends included: each
    axis is put on its own modulus by `_exact_axes`, the integers
    `enumerate_psi` walks.  A full-width axis always hits and drops out;
    with none left the count is k_max.  One axis left is counted in
    O(log M) steps by two floor sums, since for 0 <= w < M, x mod M <= w
    exactly when floor(x/M) - floor((x - w - 1)/M) = 1.  Two or more axes
    walk the orbit with `_orbit_hits`; BudgetError before any work when
    k_max exceeds KW_MAX_WALK then.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    theta = [Fraction(t) for t in theta]
    if len(theta) != len(box):
        raise DomainError("need one (lo, hi) interval per theta component")
    arcs = []
    predicted = 1.0
    for t, (lo, hi) in zip(theta, box):
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise DomainError(f"malformed interval [{lo}, {hi}]")
        width = hi - lo
        predicted *= float(min(width, 1))
        if width < 1:
            arcs.append((t, lo, width))
    if len(arcs) > 1 and k_max > KW_MAX_WALK:
        raise BudgetError(
            f"k_max {k_max} exceeds the {KW_MAX_WALK}-step orbit walk of a "
            f"{len(arcs)}-axis box"
        )
    steps, moduli, lows, widths = _exact_axes(arcs)
    if not arcs:
        hits = k_max
    elif len(arcs) == 1:
        # n = i + 1: x = s i + b with b = s - low made non-negative mod M;
        # adding M to both numerators keeps x - w - 1 non-negative
        (s,), (m,), (low,), (w,) = steps, moduli, lows, widths
        b = (s - low) % m + m
        hits = _floor_sum(k_max, m, s, b) - _floor_sum(k_max, m, s, b - w - 1)
    else:
        hits = sum(1 for _ in _orbit_hits(steps, moduli, lows, widths, k_max))
    rational = any(t.denominator <= k_max for t in theta)
    return DensityReport(
        k_max=k_max,
        hits=hits,
        empirical=hits / k_max,
        predicted=predicted,
        rational_theta=rational,
    )
