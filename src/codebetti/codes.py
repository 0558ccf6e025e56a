"""Neural codes as sets of bit-mask codewords.

Neuron indices are 1-based in every public interface, matching the variable
names x1..xn; bit i-1 of a codeword mask records neuron i.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

MAX_NEURONS = 16

# cap on graph vertices and ideal variable pairs; above MAX_NEURONS, so the
# relationship graph and polarized ideal of every code still parse
MAX_INDEX = 64


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
        """Build a code from codeword masks; the empty word is added."""
        return cls(n, frozenset(words) | {0})

    def sorted_words(self) -> list[int]:
        return sorted(self.words, key=lambda w: (w.bit_count(), indices_of(w)))


class LineReader:
    """The line rules shared by the code, ideal, graph and steps file formats.

    Iterating yields the stripped data lines: blank lines and "#" comment
    lines are skipped, and an optional leading "n=<int>" header (0..limit)
    is consumed into `declared`.  `index` and `bit` check a 1-based index
    against the header and the limit before it is ever shifted into a mask.
    """

    def __init__(self, text: str, limit: int, error: type[ValueError] = ValueError):
        self.text = text
        self.limit = limit
        self.error = error
        self.declared: int | None = None
        self.top = 0
        self.lineno = 0

    def __iter__(self):
        seen_data = False
        for self.lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("n="):
                if seen_data or self.declared is not None:
                    raise self.fail("n= header must come first")
                try:
                    declared = int(line[2:])
                except ValueError:
                    raise self.fail(f"bad header {line!r}") from None
                if not 0 <= declared <= self.limit:
                    raise self.fail(f"n={declared} is outside 0..{self.limit}")
                self.declared = declared
                continue
            seen_data = True
            yield line

    def fail(self, message: str) -> ValueError:
        return self.error(f"line {self.lineno}: {message}")

    def index(self, token: str) -> int:
        """A 1-based index, checked against the declared n and the limit."""
        try:
            i = int(token)
        except ValueError:
            raise self.fail(f"not an index: {token!r}") from None
        if i <= 0:
            raise self.fail(f"indices are positive, got {i}")
        if self.declared is not None and i > self.declared:
            raise self.fail(f"index {i} exceeds declared n={self.declared}")
        if i > self.limit:
            raise self.fail(f"index {i} exceeds the cap of {self.limit}")
        self.top = max(self.top, i)
        return i

    def bit(self, token: str) -> int:
        return 1 << (self.index(token) - 1)

    @property
    def n(self) -> int:
        """The declared count, else the largest index read."""
        return self.top if self.declared is None else self.declared


def parse_code(text: str) -> NeuralCode:
    """Read a code file: one codeword per line of 1-based indices.

    The line "0" is the empty codeword; comments and the optional "n="
    header follow LineReader (otherwise the maximum index seen is used);
    indices are capped at MAX_NEURONS.
    A missing empty codeword is inserted with a CodeFormatWarning.
    """
    reader = LineReader(text, MAX_NEURONS, CodeParseError)
    words = set()
    for line in reader:
        mask = 0
        if line != "0":
            for tok in line.split():
                mask |= reader.bit(tok)
        words.add(mask)
    if 0 not in words:
        warnings.warn("empty codeword missing; inserted", CodeFormatWarning, stacklevel=2)
        words.add(0)
    return NeuralCode(reader.n, frozenset(words))


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
    """Pure report; silent neuron i means the degree-one monomial x_i vanishes on the code.

    Each neuron's fires are the positions, in one pass over the words, of
    the words it is in: a silent neuron has none, and two neurons fire
    identically when their positions are equal.
    """
    fires = [[] for _ in range(code.n)]
    for k, w in enumerate(code.words):
        while w:
            low = w & -w
            fires[low.bit_length() - 1].append(k)
            w ^= low
    silent = tuple(i for i, f in enumerate(fires, 1) if not f)
    dups = tuple((i, j) for (i, fi), (j, fj) in combinations(enumerate(fires, 1), 2) if fi == fj)
    return CodeDiagnostics(silent, dups)
