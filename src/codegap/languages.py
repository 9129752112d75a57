"""Grammar registry: per-language lexing tables and special marker tokens.

Marker texts (cls/mask/fold) are chosen so no lexer can ever produce them as a
single token: the lexers never emit a token mixing angle brackets with letters
outside of strings and comments, and string/comment tokens always retain their
quote/prefix characters.
"""

from __future__ import annotations

import keyword as _python_keyword
from dataclasses import dataclass
from pathlib import Path

from .errors import CodegapError, UnsupportedLanguage

MASK_TOKEN = "<mask>"
FOLD_TOKEN = "<fold>"


@dataclass(frozen=True)
class Language:
    name: str
    keywords: frozenset[str]
    operators: tuple[str, ...]
    line_comment: str | None = None
    block_comment: tuple[str, str] | None = None
    string_prefixes: frozenset[str] = frozenset()
    triple_quotes: bool = False
    template_strings: bool = False
    regex_literals: bool = False
    preprocessor: bool = False
    dollar_identifiers: bool = False
    indent_blocks: bool = False

    @property
    def cls_token(self) -> str:
        return f"<cls_{self.name}>"

    def __str__(self) -> str:
        return self.name


def _ops(*groups: str) -> tuple[str, ...]:
    """Multi-char operators, longest first so the lexer can greedy-match."""
    ops = sorted({op for g in groups for op in g.split()}, key=len, reverse=True)
    return tuple(ops)


_C_FAMILY_OPS = "<<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= ^= |="

_PYTHON = Language(
    name="python",
    keywords=frozenset(_python_keyword.kwlist),
    operators=_ops("** // << >> <= >= == != -> := ... **= //= <<= >>= += -= *= /= %= &= |= ^= @="),
    line_comment="#",
    string_prefixes=frozenset(
        a + b
        for base in ("r", "b", "u", "f", "rb", "br", "fr", "rf")
        for a in (base[0].lower(), base[0].upper())
        for b in ([""] if len(base) == 1 else [base[1].lower(), base[1].upper()])
    ),
    triple_quotes=True,
    indent_blocks=True,
)

_JAVA = Language(
    name="java",
    keywords=frozenset(
        """abstract assert boolean break byte case catch char class const continue
        default do double else enum extends final finally float for goto if implements
        import instanceof int interface long native new package private protected public
        return short static strictfp super switch synchronized this throw throws transient
        try void volatile while true false null""".split()
    ),
    operators=_ops(_C_FAMILY_OPS, ">>>= >>> :: == === !="),
    line_comment="//",
    block_comment=("/*", "*/"),
    dollar_identifiers=True,
)

_C = Language(
    name="c",
    keywords=frozenset(
        """auto break case char const continue default do double else enum extern float
        for goto if inline int long register restrict return short signed sizeof static
        struct switch typedef union unsigned void volatile while
        _Bool _Complex _Imaginary""".split()
    ),
    operators=_ops(_C_FAMILY_OPS),
    line_comment="//",
    block_comment=("/*", "*/"),
    preprocessor=True,
)

_JAVASCRIPT = Language(
    name="javascript",
    keywords=frozenset(
        """break case catch class const continue debugger default delete do else export
        extends finally for function if import in instanceof let new of return static
        super switch this throw try typeof var void while with yield async await
        true false null""".split()
    ),
    operators=_ops(_C_FAMILY_OPS, "=== !== ** **= => ?. ?? ??= &&= ||= >>> >>>= ..."),
    line_comment="//",
    block_comment=("/*", "*/"),
    template_strings=True,
    regex_literals=True,
    dollar_identifiers=True,
)

_REGISTRY: dict[str, Language] = {
    lang.name: lang for lang in (_PYTHON, _JAVA, _C, _JAVASCRIPT)
}

DEFAULT_EXTENSIONS: dict[str, str] = {
    "py": "python",
    "java": "java",
    "c": "c",
    "h": "c",
    "js": "javascript",
    "mjs": "javascript",
}


def supported_languages() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_language(name: str) -> Language:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedLanguage(f"no grammar registered for {name!r}; "
                                  f"supported: {', '.join(supported_languages())}") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; one that is not UTF-8 is a data error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CodegapError(f"{path}: not valid UTF-8: {exc}") from exc


def load_extension_map(path: str | Path) -> dict[str, str]:
    """Parse an ``ext=grammar`` per-line config file into an extension map.

    Blank lines and lines starting with ``#`` are ignored. Naming an
    unregistered grammar is a configuration error and raises.
    """
    mapping: dict[str, str] = {}
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UnsupportedLanguage(f"malformed extension mapping: {line!r}")
        ext, grammar = (part.strip() for part in line.split("=", 1))
        get_language(grammar)
        mapping[ext.lstrip(".").lower()] = grammar
    return mapping


def language_for_name(name: str, ext_map: dict[str, str] | None = None) -> Language | None:
    """Resolve a file name to its grammar via the extension registry, or None. The
    extension follows the name's last dot, as `Path.suffix` takes it."""
    dot = name.rfind(".")
    ext = name[dot + 1:].lower() if 0 < dot < len(name) - 1 else ""
    grammar = (ext_map if ext_map is not None else DEFAULT_EXTENSIONS).get(ext)
    return get_language(grammar) if grammar else None


def language_for_path(path: str | Path, ext_map: dict[str, str] | None = None) -> Language | None:
    """Resolve a file to its grammar via the extension registry, or None."""
    return language_for_name(Path(path).name, ext_map)
