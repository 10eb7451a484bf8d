"""Value expressions usable inside ``map`` operators and predicates.

Sonata's published queries use lambdas (``p => (p.dIP, 1)``); to compile to
a switch the transformations must instead be *declarative*, which is also
how the released Sonata prototype works. Each expression knows:

- how to evaluate itself on a single tuple (``evaluate``),
- whether a PISA switch can perform it (``switch_supported``) — e.g.
  division is not supported in the data plane, which is exactly why the
  Slowloris query (Query 2) must finish at the stream processor,
- which input fields it reads (``inputs``) and its output name and width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.errors import QueryValidationError
from repro.core.fields import FieldRegistry, FIELDS, coarsen_value


class Expression:
    """Base class for map/predicate value expressions."""

    #: Name of the produced tuple field.
    name: str

    def inputs(self) -> tuple[str, ...]:
        raise NotImplementedError

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    @property
    def switch_supported(self) -> bool:
        raise NotImplementedError

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        """Bit width of the produced value, for metadata accounting."""
        raise NotImplementedError


@dataclass(frozen=True)
class FieldRef(Expression):
    """Pass a tuple field through unchanged (optionally renamed)."""

    field: str
    rename: str | None = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.rename or self.field

    def inputs(self) -> tuple[str, ...]:
        return (self.field,)

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        return tup[self.field]

    @property
    def switch_supported(self) -> bool:
        return True

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        if self.field in registry:
            return registry.get(self.field).width
        return 32  # derived field default


@dataclass(frozen=True)
class Const(Expression):
    """A constant value, e.g. the literal 1 in ``map(p => (p.dIP, 1))``."""

    value: int
    rename: str = "count"

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.rename

    def inputs(self) -> tuple[str, ...]:
        return ()

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        return self.value

    @property
    def switch_supported(self) -> bool:
        return True

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        return max(int(self.value).bit_length(), 1)


@dataclass(frozen=True)
class Prefixed(Expression):
    """Coarsen a hierarchical field to a refinement level (e.g. dIP → dIP/8).

    On the switch this is a bitwise AND with a mask — always supported.
    This is the expression the planner inserts when augmenting queries for
    dynamic refinement (Figure 4).
    """

    field: str
    level: int
    rename: str | None = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.rename or self.field

    def inputs(self) -> tuple[str, ...]:
        return (self.field,)

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        spec = FIELDS.get(self.field)
        return coarsen_value(spec, tup[self.field], self.level)

    @property
    def switch_supported(self) -> bool:
        return True

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        return registry.get(self.field).width


@dataclass(frozen=True)
class Quantized(Expression):
    """Round a numeric field down to a multiple of ``step``.

    Used by the Zorro query (Query 3): ``p.nBytes / N`` buckets packet
    lengths. A switch supports this when ``step`` is a power of two (a
    shift); otherwise the expression is pinned to the stream processor.
    """

    field: str
    step: int
    rename: str | None = None

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise QueryValidationError("quantization step must be positive")

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.rename or self.field

    def inputs(self) -> tuple[str, ...]:
        return (self.field,)

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        return (int(tup[self.field]) // self.step) * self.step

    @property
    def switch_supported(self) -> bool:
        return self.step & (self.step - 1) == 0  # power of two → shift+mask

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        if self.field in registry:
            return registry.get(self.field).width
        return 32


@dataclass(frozen=True)
class Ratio(Expression):
    """``numerator / denominator`` over two tuple fields.

    Division is *not* available in PISA data planes (the paper uses this to
    motivate why Query 2 cannot run entirely on a Tofino), so
    ``switch_supported`` is False.
    """

    numerator: str
    denominator: str
    rename: str = "ratio"
    scale: int = 1_000_000  # fixed-point scale so results stay integral

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.rename

    def inputs(self) -> tuple[str, ...]:
        return (self.numerator, self.denominator)

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        denom = tup[self.denominator]
        if denom == 0:
            return 0
        return (tup[self.numerator] * self.scale) // denom

    @property
    def switch_supported(self) -> bool:
        return False

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        return 64


@dataclass(frozen=True)
class Difference(Expression):
    """``left - right`` over two tuple fields (e.g. #SYN − #FIN)."""

    left: str
    right: str
    rename: str = "diff"

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.rename

    def inputs(self) -> tuple[str, ...]:
        return (self.left, self.right)

    def evaluate(self, tup: Mapping[str, Any]) -> Any:
        return tup[self.left] - tup[self.right]

    @property
    def switch_supported(self) -> bool:
        return True  # subtraction exists in the data plane

    def width(self, registry: FieldRegistry = FIELDS) -> int:
        return 32


def as_expression(spec: "str | Expression") -> Expression:
    """Coerce a bare field name into a :class:`FieldRef`."""
    if isinstance(spec, Expression):
        return spec
    if isinstance(spec, str):
        return FieldRef(spec)
    raise QueryValidationError(f"cannot interpret {spec!r} as a map expression")
