"""Exception types shared across the toolkit, and the declared ranges of the
config dataclasses' settings.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
"""

from __future__ import annotations

import math
from argparse import ArgumentTypeError
from dataclasses import dataclass, field, fields
from numbers import Integral, Real


class DataError(ValueError):
    """Malformed or inconsistent input data (parse errors, invariant violations)."""


class NumericalError(RuntimeError):
    """A numerical procedure produced non-finite values or failed to meet its tolerance."""


class EmptyInteractMeshError(RuntimeError):
    """No tetrahedron survived retention: the frame carries no interaction structure.

    Callers are expected to catch this and skip the Laplacian term for the frame.
    """


@dataclass(frozen=True)
class Range:
    """The valid values of one setting: one of `choices`, or a finite number
    of `kind` (an int is not a bool, a float may be an int) that is >= `ge`,
    > `gt` and, if `odd`, odd. None is valid when `none_ok`."""

    kind: type
    ge: float | None = None
    gt: float | None = None
    odd: bool = False
    choices: tuple | None = None
    none_ok: bool = False

    def admits(self, value) -> bool:
        if value is None:
            return self.none_ok
        if self.choices:
            return value in self.choices
        if isinstance(value, bool) or not isinstance(value, Integral if self.kind is int else Real):
            return False
        return (-math.inf < value < math.inf
                and (self.ge is None or value >= self.ge)
                and (self.gt is None or value > self.gt)
                and not (self.odd and value % 2 == 0))

    def parse(self, text: str):
        """The setting read from a flag's text: the flag's argparse type."""
        if self.none_ok and text.lower() == "none":
            return None
        try:
            value = text if self.choices else self.kind(text)
            if self.admits(value):
                return value
        except ValueError:
            pass
        raise ArgumentTypeError(f"{text!r} is not {self}")

    def __str__(self) -> str:
        if self.choices:
            text = "one of " + ", ".join(self.choices)
        else:
            text = ("an odd integer" if self.odd else "an integer") if self.kind is int else "a finite number"
            if self.ge is not None:
                text += f" >= {self.ge}"
            if self.gt is not None:
                text += f" > {self.gt}"
        return text + " or none" if self.none_ok else text


def setting(default, **valid):
    """A config dataclass field whose valid values are declared with it: the
    keywords of Range, whose kind is the default's type."""
    return field(default=default, metadata={"range": Range(type(default), **valid)})


def check_settings(config) -> None:
    """Raise DataError naming the first field of a config dataclass that its
    declared Range does not admit."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "range" in f.metadata and not f.metadata["range"].admits(value):
            raise DataError(f"{type(config).__name__}.{f.name} must be {f.metadata['range']}, got {value!r}")
