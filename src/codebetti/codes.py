"""Neural codes as sets of bit-mask codewords.

Neuron indices are 1-based in every public interface, matching the variable
names x1..xn; bit i-1 of a codeword mask records neuron i.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

MAX_NEURONS = 16


class CodeParseError(ValueError):
    """Raised for malformed code files."""


class CodeFormatWarning(UserWarning):
    """Non-fatal repairs applied while reading a code file."""


def mask_of(indices) -> int:
    """Bit mask for an iterable of 1-based neuron indices."""
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based neuron indices present in a mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def word_label(mask: int) -> str:
    """One codeword in file form: "0" for the empty word, else "1 2 4"."""
    if mask == 0:
        return "0"
    return " ".join(str(i) for i in indices_of(mask))


@dataclass(frozen=True)
class NeuralCode:
    """A set of codewords over neurons 1..n, always containing the empty word."""

    n: int
    words: frozenset[int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("neuron count must be nonnegative")
        if 0 not in self.words:
            raise ValueError("the empty codeword must be present")
        top = 1 << self.n
        for w in self.words:
            if not 0 <= w < top:
                raise ValueError(f"codeword {word_label(w)!r} out of range for n={self.n}")

    @classmethod
    def from_words(cls, n: int, words) -> "NeuralCode":
        """Build a code from masks or index iterables; the empty word is added."""
        ws = {0}
        for w in words:
            ws.add(w if isinstance(w, int) else mask_of(w))
        return cls(n, frozenset(ws))

    def sorted_words(self) -> list[int]:
        return sorted(self.words, key=lambda w: (w.bit_count(), indices_of(w)))

    def active_mask(self) -> int:
        m = 0
        for w in self.words:
            m |= w
        return m


def parse_code(text: str, max_n: int = MAX_NEURONS) -> NeuralCode:
    """Read a code file: one codeword per line of 1-based indices.

    The line "0" is the empty codeword, "#" starts a comment line, and an
    optional leading "n=<int>" header declares the neuron count (otherwise
    the maximum index seen is used).  A missing empty codeword is inserted
    with a CodeFormatWarning.
    """
    declared = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            if rows or declared is not None:
                raise CodeParseError(f"line {lineno}: n= header must come first")
            try:
                declared = int(line[2:])
            except ValueError:
                raise CodeParseError(f"line {lineno}: bad header {line!r}") from None
            if declared < 0:
                raise CodeParseError(f"line {lineno}: negative neuron count")
            if declared > max_n:
                raise CodeParseError(f"line {lineno}: n={declared} exceeds the cap of {max_n} neurons")
            continue
        if line == "0":
            rows.append(0)
            continue
        mask = 0
        for tok in line.split():
            try:
                i = int(tok)
            except ValueError:
                raise CodeParseError(f"line {lineno}: not a neuron index: {tok!r}") from None
            if i <= 0:
                raise CodeParseError(f"line {lineno}: neuron indices are positive, got {i}")
            # checked before the shift, so a huge index never becomes a huge mask
            if declared is not None and i > declared:
                raise CodeParseError(f"line {lineno}: neuron index {i} exceeds declared n={declared}")
            if i > max_n:
                raise CodeParseError(f"line {lineno}: neuron index {i} exceeds the cap of {max_n} neurons")
            mask |= 1 << (i - 1)
        rows.append(mask)
    n = max(rows, default=0).bit_length() if declared is None else declared
    words = set(rows)
    if 0 not in words:
        warnings.warn("empty codeword missing; inserted", CodeFormatWarning, stacklevel=2)
        words.add(0)
    return NeuralCode(n, frozenset(words))


def serialize_code(code: NeuralCode) -> str:
    """Inverse of parse_code; sorted by word size, then by indices."""
    lines = [f"n={code.n}"]
    lines += [word_label(w) for w in code.sorted_words()]
    return "\n".join(lines) + "\n"


def delete_neuron(code: NeuralCode, i: int, reindex: bool = True) -> NeuralCode:
    """Remove neuron i from every codeword and merge duplicates.

    With reindex (the default) neurons above i shift down and n drops by
    one; otherwise the index is kept but goes silent.
    """
    if not 1 <= i <= code.n:
        raise ValueError(f"neuron {i} out of range 1..{code.n}")
    bit = 1 << (i - 1)
    low = bit - 1
    if reindex:
        words = frozenset((w & low) | ((w >> 1) & ~low) for w in code.words)
        return NeuralCode(code.n - 1, words)
    return NeuralCode(code.n, frozenset(w & ~bit for w in code.words))


def enumerate_interval(sigma: int, tau: int) -> list[int]:
    """All masks between sigma and tau inclusive; requires sigma contained in tau."""
    if sigma & ~tau:
        raise ValueError("sigma must be contained in tau")
    diff = tau & ~sigma
    out = []
    sub = diff
    while True:
        out.append(sigma | sub)
        if sub == 0:
            break
        sub = (sub - 1) & diff
    out.reverse()
    return out


@dataclass(frozen=True)
class CodeDiagnostics:
    """Silent neurons and pairs of neurons that fire identically."""

    silent: tuple[int, ...]
    duplicate_pairs: tuple[tuple[int, int], ...]

    @property
    def clean(self) -> bool:
        return not self.silent and not self.duplicate_pairs


def validate_code(code: NeuralCode) -> CodeDiagnostics:
    """Pure report; silent neuron i means the degree-one monomial x_i vanishes on the code."""
    active = code.active_mask()
    silent = tuple(i for i in range(1, code.n + 1) if not active >> (i - 1) & 1)
    dups = []
    for i, j in combinations(range(1, code.n + 1), 2):
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        if all(bool(w & bi) == bool(w & bj) for w in code.words):
            dups.append((i, j))
    return CodeDiagnostics(silent, tuple(dups))
