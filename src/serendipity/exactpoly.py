"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is stored as nonzero integer terms, keyed by
exponent tuples (length n, non-negative ints), over one denominator:
content and primitive part.  All arithmetic is exact; floats only appear
on the optional floating-point evaluation path.

Two degree notions drive everything downstream:

* total degree: the sum of the exponents of a monomial, and
* superlinear degree: the sum of only those exponents that are >= 2,
  i.e. the total degree after ignoring variables that enter linearly.

For any monomial, total degree = superlinear degree + (number of
variables with exponent exactly 1).

The canonical term order is graded lexicographic: sort by total degree
first, then lexicographically on the exponent tuple itself.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, attrgetter, itemgetter
from types import FunctionType

Exponents = tuple[int, ...]
Scalar = int | Fraction

__all__ = [
    "Exponents",
    "Polynomial",
    "monomial_str",
    "grlex_key",
    "superlinear_degree",
]


_COEFF = re.compile(r"[-+]?(\d+(/\d+)?|\d+\.\d*|\.\d+)", re.ASCII)


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for graded lexicographic order on exponent tuples."""
    return (sum(exponents), exponents)


def _validate_exponents(exponents: Sequence[int]) -> Exponents:
    exps = tuple(exponents)
    for e in exps:
        if (type(e) is not int and (not isinstance(e, int) or isinstance(e, bool))) or e < 0:
            raise ValueError(f"exponents must be non-negative ints, got {exps!r}")
    return exps


def superlinear_degree(exponents: Exponents) -> int:
    """Total degree counting only variables with exponent >= 2."""
    return sum(e for e in exponents if e >= 2)


def monomial_str(exponents: Exponents) -> str:
    """Render a monomial as x1^2*x2, or 1 for the constant."""
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exponents) if e]
    return "*".join(parts) or "1"


def _ratio(c: int, den: int) -> str:
    """c / den as reduced p/q text, den > 0; q = 1 is written too."""
    g = gcd(c, den)
    return f"{c // g}/{den // g}"


def _json(value: object) -> object:
    """A field's JSON data: a tuple as a list, one of ints or bools in one
    call; a value with its own ``to_json_obj`` through it; anything else as
    it is.  A tuple field holds one type (``tuple[T, ...]``), so its first
    item tells which: a type check of every item would cost more than the
    copy."""
    if type(value) is tuple:
        if not value or type(value[0]) in (int, bool):
            return list(value)
        return list(map(_json, value))
    to_json = getattr(value, "to_json_obj", None)
    return value if to_json is None else to_json()


class Record:
    """Frozen value record: what ``@dataclass(frozen=True)`` gives, without
    importing ``dataclasses``.  A subclass annotates its fields in order,
    trailing defaults as class attributes.  Construction takes them by
    position or keyword, then runs ``__post_init__``; equality holds within
    one class, the hash is the field tuple's, the repr ``Name(field=value,
    ...)``, and assignment or deletion raises ``AttributeError``.  The
    ``__dict__`` stays, for ``cached_property``, pickle and ``copy``; a hot
    class may write its own ``__init__`` that fills it.  ``to_json_obj``
    writes the fields, then the properties named in ``_derived``."""

    _derived = ()  # not annotated, so not a field

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)  # the field tuple; needs two fields

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            defaults = vars(type(self))
            try:
                rest = [kwargs.pop(f) if f in kwargs else defaults[f] for f in fields[len(args) :]]
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__}() missing field {missing}") from None
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
            args += tuple(rest)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._key(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json_obj(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self._fields + self._derived}


class Polynomial:
    """Immutable sparse polynomial, stored as (den, {exponents: int}) with
    den > 0, no zero term and no common factor of den and all the
    integers; zero is (1, {}).  The form is canonical, so equality and the
    hash compare it.  The constructor coerces its coefficients to Fraction,
    adds them where exponents repeat and stores the nonzero sums over the
    lcm of their denominators; ``_over`` and ``_cleared`` build and read
    the form, and Fractions are built only where the API gives them out.
    """

    __slots__ = ("_n", "_den", "_terms", "_plan")

    def __init__(self, n: int, terms: Mapping[Sequence[int], Scalar] = ()) -> None:
        if n < 0:
            raise ValueError("number of variables must be >= 0")
        canonical: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coeff in items:
            exps = _validate_exponents(exponents)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps!r} does not have length {n}")
            value = coeff if type(coeff) is Fraction else Fraction(coeff)
            if value and exps in canonical:
                value += canonical[exps]
                if not value:
                    del canonical[exps]
            if value:
                canonical[exps] = value
        # each prime power in den is some reduced denominator's, prime to its numerator
        den = lcm(*[c.denominator for c in canonical.values()])
        self._store(n, den, {e: c.numerator * (den // c.denominator) for e, c in canonical.items()})

    def _store(self, n: int, den: int, terms: dict[Exponents, int]) -> "Polynomial":
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_plan", None)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self._n, dict(self._fractions())))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        exps = tuple(1 if i == index else 0 for i in range(n))
        return cls(n, {exps: Fraction(1)})

    @classmethod
    def _over(cls, n: int, terms: dict[Exponents, int], den: int) -> "Polynomial":
        """The polynomial of integer terms over den > 0, reduced by their
        gcd in one pass, zero terms dropped.  The keys must be distinct
        tuples of n non-negative ints; nothing is checked."""
        terms = {e: v for e, v in terms.items() if v}
        g = gcd(den, *terms.values())
        if g > 1:
            den, terms = den // g, {e: v // g for e, v in terms.items()}
        return object.__new__(cls)._store(n, den, terms)

    def _cleared(self) -> tuple[int, dict[Exponents, int]]:
        """(den, terms): the stored form, integer terms over den, unsorted.
        Both are the polynomial's own: read them, never change them."""
        return self._den, self._terms

    def _fractions(self) -> Iterator[tuple[Exponents, Fraction]]:
        den = self._den
        return ((e, Fraction(c, den)) for e, c in self._terms.items())

    @classmethod
    def from_monomial(cls, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        exps = _validate_exponents(exponents)
        return cls(len(exps), {exps: Fraction(coeff)})

    # -- inspection --------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded lexicographic order."""
        return sorted(self._fractions(), key=lambda kv: grlex_key(kv[0]))

    def _text_terms(self) -> list[tuple[Exponents, str]]:
        """Terms in graded lexicographic order, each coefficient as reduced
        p/q text (``_ratio``)."""
        den = self._den
        return [(e, _ratio(c, den)) for e, c in sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))]

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exponents), 0), self._den)

    def degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def superlinear_degree(self) -> int:
        """Max superlinear degree over terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(superlinear_degree(e) for e in self._terms)

    # -- arithmetic --------------------------------------------------

    def _require_same_n(self, other: "Polynomial") -> None:
        if self._n != other._n:
            raise ValueError(
                f"polynomials live in different variable counts: {self._n} vs {other._n}"
            )

    def __add__(self, other: Polynomial | Scalar) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_n(other)
        return Polynomial(self._n, itertools.chain(self._fractions(), other._fractions()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._over(self._n, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other: Polynomial | Scalar) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: Polynomial | Scalar) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self._n)
            return Polynomial(self._n, {e: c * other for e, c in self._fractions()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_n(other)
        pairs = itertools.product(self._fractions(), other._fractions())
        return Polynomial(self._n, ((tuple(map(add, a, b)), x * y) for (a, x), (b, y) in pairs))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = Polynomial.one(self._n)
        for _ in range(power):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._n == other._n and self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its scalar, so it must hash as that scalar
        zero = (0,) * self._n
        if self._terms.keys() <= {zero}:
            return hash(Fraction(self._terms.get(zero, 0), self._den))
        return hash((self._n, self._den, frozenset(self._terms.items())))

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.terms())

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.terms():
            mono = monomial_str(exps)
            if mono == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- evaluation --------------------------------------------------

    def evaluate(self, point: Sequence[Scalar | float]) -> Fraction | float:
        """Evaluate at a point.

        If every coordinate is an int or Fraction the result is an exact
        Fraction: the integer terms are summed, then divided once by den.
        If any coordinate is a float, everything is converted to float and
        evaluated with a nested Horner scheme, one variable at a time, for
        numerical stability.  The scheme runs as straight-line code, the
        same float operations in the same order.  Its code depends only on
        the exponents, so it is compiled once per exponent shape
        (``_compile_horner``) and the first float call binds this
        polynomial's leaves to it, ``0 + c / den`` per integer c; later
        calls run it.  CPython rounds int true division correctly, so a
        leaf is ``float(Fraction(c, den))``, with 0.0 for -0.0.  That code
        converts the coordinates itself and forms each distinct power
        x_i ** k, k > 1, once, so a call costs one ``**`` per such power
        and one multiply and add per Horner step.
        """
        if len(point) != self._n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self._n}")
        for v in point:
            if isinstance(v, float):
                plan = self._plan
                if plan is None:
                    if not self._terms:
                        return 0.0
                    items, den = sorted(self._terms.items(), reverse=True), self._den  # distinct keys
                    leaves = tuple([0 + c / den for _, c in items])
                    template = _compile_horner(self._n, tuple([e for e, _ in items]))
                    plan = FunctionType(template.__code__, template.__globals__, "plan", leaves)
                    object.__setattr__(self, "_plan", plan)
                return plan(*point)
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total / self._den

    def __call__(self, *point: Scalar | float) -> Fraction | float:
        return self.evaluate(point)

    # -- serialization -----------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [{"exponents": list(e), "coeff": text} for e, text in self._text_terms()]

    @classmethod
    def from_json_obj(cls, n: int, data: Iterable[Mapping]) -> "Polynomial":
        terms = []
        for record in data:
            exps = _validate_exponents(record["exponents"])
            coeff = record["coeff"]
            # a JSON float is already rounded, and a bool is no coefficient
            if not isinstance(coeff, (int, str)) or isinstance(coeff, bool):
                raise TypeError(f"coefficient {coeff!r} is not an integer or a string")
            # exponent notation such as "1e999999999" would build the power
            if isinstance(coeff, str) and not _COEFF.fullmatch(coeff):
                raise ValueError(f"coefficient {coeff!r} is not an integer, p/q or decimal string")
            terms.append((exps, Fraction(coeff)))
        return cls(n, terms)


# The nodal functions come face by face, one per weight, and the next face
# of a run repeats those exponent shapes, so a shape is reused after at most
# one face's weight count of others: 84 within the caps, dim P_6 on a 3-face
# at r = 12.
_TEMPLATES = 128


@lru_cache(maxsize=_TEMPLATES)
def _compile_horner(n: int, exponents: tuple[Exponents, ...]):
    """Compile the nested Horner scheme of the distinct exponent tuples in
    descending order to a function of the n coordinates and then one leaf
    per term, in that order.  Per axis, each exponent group e, descending,
    adds its inner value to acc * x ** (prev - e), the axis ends with acc *
    x ** prev, and a leaf is read as given; one statement per step, so
    nothing nests.  A group's first value enters its first step directly,
    and x ** 1 is read as x, which is the same float.  The function
    converts its coordinates to float and forms each other distinct power
    x ** k once, at its top, so a step reads a local.

    Only the shape is compiled: a polynomial binds its own leaves as the
    defaults of a function on this code.  The cache keeps the templates
    last used, at most ``_TEMPLATES``."""
    lines: list[str] = []
    powers: dict[str, str] = {}
    leaves = [f"c{i}" for i in range(len(exponents))]
    leaf = iter(leaves)

    def power(axis: int, k: int) -> str:
        if k == 1:  # pow(x, 1.0) is x
            return f"x{axis}"
        name = f"p{axis}_{k}"
        powers[name] = f"x{axis} ** {k}"
        return name

    def emit(group, axis: int, target: str) -> str:
        """Emit the steps of group at axis; return what holds its value,
        target or a leaf.  The first group's value is built in target."""
        value = prev = None
        for e, sub in itertools.groupby(group, itemgetter(axis)):
            if axis + 1 == n:  # one term per leaf
                inner = next(leaf)
            else:
                inner = emit(sub, axis + 1, target if prev is None else f"a{axis + 1}")
            if prev is None:
                value = inner
            else:
                lines.append(f"{target} = {value} * {power(axis, prev - e)} + {inner}")
                value = target
            prev = e
        if prev:
            lines.append(f"{target} = {value} * {power(axis, prev)}")
            value = target
        return value

    lines.append(f"return {emit(exponents, 0, 'a0')}")
    del emit  # emit's closure holds emit: unbound, the code's text goes with this call
    args = [f"x{i}" for i in range(n)]
    head = [f"{', '.join(args)} = {', '.join(f'float({x})' for x in args)}"]
    head += [f"{name} = {value}" for name, value in powers.items()]
    namespace: dict = {"__builtins__": {}, "float": float}
    exec(f"def plan({', '.join(args + leaves)}):\n " + "\n ".join(head + lines) + "\n", namespace)
    return namespace.pop("plan")  # no cycle through its globals
