"""Sparse multivariate polynomials over Q and bounded-degree rewriting.

A PolyRing fixes distinct variable names, a grading weight per variable
(the weighted degree used everywhere for truncation), and a separate list of
order weights defining the monomial order: order-weighted degree first, then
lexicographic on exponent tuples.  No weight is negative.  Order weights may
be zero for auxiliary coefficient variables; the grading weights of those are
zero as well so that degree bounds only see the main generators.

RelationSystem interprets each relation as the rewrite rule
lead -> (lead - relation/leadcoeff) under that order, and provides bounded
normal forms and an S-polynomial closure check.  Reduction rewrites a
monomial by the first rule whose lead divides it, so the normal form is a
linear map determined by its values on monomials; each system memoizes those
values, with the highest degree met while computing each one, so that degree
bounds are still enforced.
"""

from __future__ import annotations

from operator import add, mul

from .linalg import ZERO, ONE, accum, as_int, rat, rat_str, vec_addmul


class BoundExceededError(Exception):
    """A reduction or request escaped the configured degree window."""


class PolyRing:
    __slots__ = ("names", "weights", "order_weights", "index")

    def __init__(self, names, weights, order_weights=None):
        self.names = tuple(names)
        self.weights = tuple(weights)
        if len(self.weights) != len(self.names):
            raise ValueError("one grading weight per variable")
        if order_weights is None:
            order_weights = self.weights
        self.order_weights = tuple(order_weights)
        if len(self.order_weights) != len(self.names):
            raise ValueError("one order weight per variable")
        if any(type(x) is not int for x in self.weights + self.order_weights):
            raise ValueError("grading and order weights must be integers, got %r and %r"
                             % (self.weights, self.order_weights))
        if any(x < 0 for x in self.weights + self.order_weights):
            raise ValueError("grading and order weights must be nonnegative, got %r and %r"
                             % (self.weights, self.order_weights))
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("variable names must be distinct, got %r" % (self.names,))

    def nvars(self):
        return len(self.names)

    def wdeg(self, exps):
        return sum(map(mul, self.weights, exps))

    def order_key(self, exps):
        return (sum(w * e for w, e in zip(self.order_weights, exps)), exps)

    def zero(self):
        return MultiPoly(self, {})

    def const(self, c):
        c = rat(c)
        if not c:
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars(): c})

    def one(self):
        return self.const(1)

    def var(self, name):
        e = [0] * self.nvars()
        e[self.index[name]] = 1
        return MultiPoly(self, {tuple(e): ONE})

    def monomial(self, exps, coeff=ONE):
        coeff = rat(coeff)
        if not coeff:
            return self.zero()
        return MultiPoly(self, {tuple(exps): coeff})

    def monomials_up_to(self, bound):
        """All exponent tuples of weighted degree <= bound (weights must be
        positive), in lexicographic order."""
        if any(w <= 0 for w in self.weights):
            raise ValueError("enumeration needs positive weights")
        # extending each tuple of a sorted level by ascending exponents
        # keeps the next level sorted; each tuple carries the degree left
        level = [((), bound)]
        for w in self.weights:
            level = [(T + (e,), left - w * e)
                     for T, left in level for e in range(left // w + 1)]
        return [T for T, _ in level]

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.weights == other.weights
                and self.order_weights == other.order_weights)

    def __repr__(self):
        return "PolyRing(%s)" % (", ".join(self.names))


def _as_coeff(c):
    return c if not isinstance(c, (int, str)) else rat(c)


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, str)):
            other = self.ring.const(other)
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("variable mismatch")

    def __add__(self, other):
        if isinstance(other, (int, str)) or not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            accum(t, e, c)
        return MultiPoly(self.ring, t)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, str)) or not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(_as_coeff(other))
        self._check(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accum(t, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return MultiPoly(self.ring, t)

    def __rmul__(self, other):
        return self.scale(_as_coeff(other))

    def scale(self, c):
        c = rat(c) if isinstance(c, (int, str)) else c
        if not c:
            return self.ring.zero()
        return MultiPoly(self.ring, {e: c * x for e, x in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def lead(self):
        """(exponent tuple, coefficient) of the order-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no lead")
        e = max(self.terms, key=self.ring.order_key)
        return e, self.terms[e]

    def constant(self):
        return self.terms.get((0,) * self.ring.nvars(), ZERO)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=self.ring.order_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if k == 1 else "%s^%d" % (n, k)
                for n, k in zip(self.ring.names, e) if k)
            cs = rat_str(c)
            if mono:
                bits.append(mono if cs == "1" else ("-" + mono if cs == "-1"
                                                    else cs + "*" + mono))
            else:
                bits.append(cs)
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__


class RelationSystem:
    """Rewrite system: relations in a PolyRing, each used as lead -> tail.

    Each rule is kept once in `rules`, as (lead, lead_c, support, tail):
    the lead's exponents and coefficient, the lead's support as the
    (index, exponent) pairs where it is nonzero, and the tail of
    lead_c*x^lead - r, in the order of r's terms, as [(t - lead,
    c_t / lead_c)], an int where integral.

    claimed_basis is a human-readable description of the expected irreducible
    monomials; is_claimed_basis_monomial, when given, is the matching
    predicate on exponent tuples.
    """

    def __init__(self, ring, relations, claimed_basis="", is_claimed_basis_monomial=None):
        self.ring = ring
        self.relations = list(relations)
        self.claimed_basis = claimed_basis
        self.is_claimed_basis_monomial = is_claimed_basis_monomial
        self.rules = []
        for r in self.relations:
            if not r:
                raise ValueError("zero relation")
            lead_e, lead_c = r.lead()
            self.rules.append((
                lead_e, lead_c, [(i, k) for i, k in enumerate(lead_e) if k],
                [(tuple(a - b for a, b in zip(t, lead_e)), as_int(-c / lead_c))
                 for t, c in r.terms.items() if t != lead_e]))
        self._normal_forms = {}

    def _first_rule(self, e):
        """The tail of the first rule whose lead divides e, matched on the
        lead's support; None if e is irreducible."""
        for _, _, support, tail in self.rules:
            for i, k in support:
                if e[i] < k:
                    break
            else:
                return tail
        return None

    def normal_form(self, p, degree_bound):
        """Reduce p until no lead monomial divides any term.

        A reducible monomial e is rewritten by the first rule whose lead
        divides it, so the normal form is the linear map N with N(e) = e for
        irreducible e and N(e) = sum over tail terms c_t x^t of
        (c_t / lead_c) N(t + e - lead) otherwise.  That holds for any order
        of reduction steps and needs no confluence.  N(e) is computed once
        per monomial and memoized on the system, and the result is
        sum_e c_e N(e) over the terms of p.

        Raises BoundExceededError if p has a term of weighted degree above
        degree_bound, or if reducing one of its monomials meets such a term.
        Each memo entry keeps the highest degree met while it was built, so
        an entry filled at a loose bound still raises at a tighter one.
        When no rule's tail has a term of higher degree than its lead (all
        systems built in this package), that is exactly when a step-by-step
        reduction would meet a term above the bound.
        """
        out = {}
        for e, c in p.terms.items():
            terms, top = self._reduce_monomial(e, degree_bound)
            if top > degree_bound:
                raise BoundExceededError(
                    "term of degree %d exceeds bound %d" % (top, degree_bound))
            vec_addmul(out, c, terms)
        return MultiPoly(self.ring, out)

    def _reduce_monomial(self, e, degree_bound):
        """(N(e) as {exps: coeff}, highest weighted degree met), memoized.
        A computation that meets a degree above the bound stops with
        BoundExceededError and stores nothing for e."""
        hit = self._normal_forms.get(e)
        if hit is not None:
            return hit
        top = self.ring.wdeg(e)
        if top > degree_bound:
            raise BoundExceededError(
                "term of degree %d exceeds bound %d" % (top, degree_bound))
        tail = self._first_rule(e)
        if tail is None:
            terms = {e: 1}
        else:
            terms = {}
            for shift, c in tail:
                sub, sub_top = self._reduce_monomial(tuple(map(add, e, shift)),
                                                     degree_bound)
                top = max(top, sub_top)
                vec_addmul(terms, c, sub)
        hit = self._normal_forms[e] = (terms, top)
        return hit

    def spoly(self, i, j):
        e1, c1, _, _ = self.rules[i]
        e2, c2, _, _ = self.rules[j]
        lcm = tuple(max(a, b) for a, b in zip(e1, e2))
        m1 = self.ring.monomial(tuple(a - b for a, b in zip(lcm, e1)), ONE / c1)
        m2 = self.ring.monomial(tuple(a - b for a, b in zip(lcm, e2)), ONE / c2)
        return m1 * self.relations[i] - m2 * self.relations[j], lcm

    def closure_check(self, degree_bound):
        """Bounded Buchberger confluence check.

        Returns a ClosureReport with verdict PASS iff every S-polynomial of
        every relation pair reduces to zero within the bound.
        """
        failures = []
        for i in range(len(self.rules)):
            for j in range(i + 1, len(self.rules)):
                s, lcm = self.spoly(i, j)
                if self.ring.wdeg(lcm) > degree_bound:
                    raise BoundExceededError(
                        "S-pair (%d,%d) lcm degree %d exceeds bound %d"
                        % (i, j, self.ring.wdeg(lcm), degree_bound))
                rem = self.normal_form(s, degree_bound)
                if rem:
                    failures.append((i, j, rem))
        return ClosureReport(not failures, failures)

    def is_irreducible(self, exps):
        return self._first_rule(exps) is None

    def to_json(self):
        return {
            "generators": [{"name": n, "degree": w}
                           for n, w in zip(self.ring.names, self.ring.weights)],
            "order_weights": list(self.ring.order_weights),
            "relations": [str(r) for r in self.relations],
            "claimed_basis": self.claimed_basis,
        }

    @classmethod
    def from_json(cls, obj):
        ring = PolyRing([g["name"] for g in obj["generators"]],
                        [g["degree"] for g in obj["generators"]],
                        obj.get("order_weights"))
        rels = [parse_poly(ring, s) for s in obj["relations"]]
        return cls(ring, rels, obj.get("claimed_basis", ""))


class ClosureReport:
    __slots__ = ("passed", "failures")

    def __init__(self, passed, failures):
        self.passed = passed
        self.failures = failures

    def to_json(self):
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "failures": [{"pair": [i, j], "remainder": str(rem)}
                         for i, j, rem in self.failures],
        }

    def __repr__(self):
        return "ClosureReport(%s)" % ("PASS" if self.passed else "FAIL")


# ---------------------------------------------------------------------------
# expression parser: +, -, *, ^, parentheses, integer/rational literals


def parse_poly(ring, text):
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(kind=None):
        tok = peek()
        if tok is None or (kind and tok[0] != kind):
            raise ValueError("parse error at %r in %r" % (tok, text))
        pos[0] += 1
        return tok

    def atom():
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of %r" % text)
        if tok[0] == "num":
            take()
            return ring.const(tok[1])
        if tok[0] == "name":
            take()
            if tok[1] not in ring.index:
                raise ValueError("unknown generator %r" % tok[1])
            return ring.var(tok[1])
        if tok[0] == "(":
            take()
            e = expr()
            take(")")
            return e
        raise ValueError("parse error at %r in %r" % (tok, text))

    def power():
        base = atom()
        while peek() and peek()[0] == "^":
            take()
            tok = take("num")
            if tok[1].denominator != 1 or tok[1] < 0:
                raise ValueError("exponent must be a nonnegative integer")
            base = base ** int(tok[1])
        return base

    def factor():
        tok = peek()
        if tok and tok[0] == "-":
            take()
            return -factor()
        if tok and tok[0] == "+":
            take()
            return factor()
        return power()

    def term():
        p = factor()
        while peek() and peek()[0] in ("*", "/"):
            op = take()[0]
            q = factor()
            if op == "*":
                p = p * q
            else:
                c = q.constant()
                if len(q.terms) > (1 if c else 0) or not c:
                    raise ValueError("can only divide by a nonzero constant")
                p = p.scale(ONE / c)
        return p

    def expr():
        p = term()
        while peek() and peek()[0] in ("+", "-"):
            op = take()[0]
            q = term()
            p = p + q if op == "+" else p - q
        return p

    result = expr()
    if peek() is not None:
        raise ValueError("trailing input in %r" % text)
    return result


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("num", rat(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_{},'"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in "+-*^()/":
            out.append((ch, ch))
            i += 1
        else:
            raise ValueError("bad character %r in %r" % (ch, text))
    return out
