"""Deterministic synthetic corpora.

Two generators: a mixed-language corpus (java / python / c / javascript) for
round-trip and pipeline exercises, and a clone corpus of templated
"functionalities", each implemented many times with renamed identifiers and
varied nesting depth. The clone generator also emits retrieval evaluation
files (queries / candidates / qrels): held-out variants become queries whose
functional core is replaced by the mask marker, with every same-functionality
core relevant and the query's own core flagged as the original to exclude.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidBounds
from .languages import MASK_TOKEN, get_language
from .pipeline import encode_row, write_jsonl

_SLOT_RE = re.compile(r"@([a-z][a-z0-9_]*)@")

_VAR_POOL = (
    "data items values result total count idx jdx left right buffer acc tmp node "
    "queue stack seen grid row col key val word text line token chunk start end "
    "low high mid best cur prev nxt flag depth width size limit step delta pivot "
    "goal src dest cache table entry score rank shift offset base top length "
    "bucket probe marks state extra inner outer edge tail head"
).split()

_FN_POOL = (
    "process compute build extract resolve transform gather summarize scan_items "
    "merge_parts encode_run pack_bits fold_seq walk_nodes count_hits find_peak "
    "trim_edges split_groups rotate_grid weigh_terms collect_spans drain_queue "
    "mark_cells probe_table settle_ranks"
).split()


def _fill(template: str, mapping: dict[str, str]) -> str:
    def sub(match: re.Match) -> str:
        return mapping[match.group(1)]

    return _SLOT_RE.sub(sub, template)


def _slots_of(template: str) -> list[str]:
    seen: list[str] = []
    for name in _SLOT_RE.findall(template):
        if name not in seen:
            seen.append(name)
    return seen


# --------------------------------------------------------------------------
# clone corpus (python): 20 functionalities, many renamed variants each

@dataclass(frozen=True)
class CloneTemplate:
    name: str
    header: str   # one line, defines the function
    core: str     # the shared functionality, written at indent 0
    footer: str   # one or more closing lines, at indent 0 like the core


CLONE_TEMPLATES: tuple[CloneTemplate, ...] = (
    CloneTemplate(
        "pair_sort",
        "def @f@(@a@):",
        "for @i@ in range(len(@a@)):\n"
        "    for @j@ in range(len(@a@) - @i@ - 1):\n"
        "        if @a@[@j@] > @a@[@j@ + 1]:\n"
        "            @a@[@j@], @a@[@j@ + 1] = @a@[@j@ + 1], @a@[@j@]",
        "return @a@",
    ),
    CloneTemplate(
        "bisect_find",
        "def @f@(@a@, @g@):",
        "@lo@ = 0\n"
        "@hi@ = len(@a@) - 1\n"
        "while @lo@ <= @hi@:\n"
        "    @m@ = (@lo@ + @hi@) // 2\n"
        "    if @a@[@m@] == @g@:\n"
        "        return @m@\n"
        "    if @a@[@m@] < @g@:\n"
        "        @lo@ = @m@ + 1\n"
        "    else:\n"
        "        @hi@ = @m@ - 1",
        "return -1",
    ),
    CloneTemplate(
        "chain_sum",
        "def @f@(@n@):",
        "@x@ = 0\n"
        "@y@ = 1\n"
        "for @i@ in range(@n@):\n"
        "    @x@, @y@ = @y@, @x@ + @y@",
        "return @x@",
    ),
    CloneTemplate(
        "common_divisor",
        "def @f@(@x@, @y@):",
        "while @y@ != 0:\n"
        "    @x@, @y@ = @y@, @x@ % @y@",
        "return abs(@x@)",
    ),
    CloneTemplate(
        "flip_words",
        "def @f@(@t@):",
        "@w@ = @t@.split()\n"
        "@r@ = []\n"
        "for @p@ in @w@:\n"
        "    @r@.insert(0, @p@)",
        "return ' '.join(@r@)",
    ),
    CloneTemplate(
        "square_total",
        "def @f@(@n@):",
        "@acc@ = 0\n"
        "for @i@ in range(1, @n@ + 1):\n"
        "    @acc@ = @acc@ + @i@ * @i@",
        "return @acc@",
    ),
    CloneTemplate(
        "prime_test",
        "def @f@(@n@):",
        "if @n@ < 2:\n"
        "    return False\n"
        "@d@ = 2\n"
        "while @d@ * @d@ <= @n@:\n"
        "    if @n@ % @d@ == 0:\n"
        "        return False\n"
        "    @d@ = @d@ + 1",
        "return True",
    ),
    CloneTemplate(
        "word_tally",
        "def @f@(@t@):",
        "@c@ = {}\n"
        "for @w@ in @t@.split():\n"
        "    @c@[@w@] = @c@.get(@w@, 0) + 1",
        "return @c@",
    ),
    CloneTemplate(
        "nest_flatten",
        "def @f@(@a@):",
        "@out@ = []\n"
        "for @g@ in @a@:\n"
        "    for @e@ in @g@:\n"
        "        @out@.append(@e@)",
        "return @out@",
    ),
    CloneTemplate(
        "grid_flip",
        "def @f@(@m@):",
        "@r@ = []\n"
        "for @i@ in range(len(@m@[0])):\n"
        "    @row@ = []\n"
        "    for @j@ in range(len(@m@)):\n"
        "        @row@.append(@m@[@j@][@i@])\n"
        "    @r@.append(@row@)",
        "return @r@",
    ),
    CloneTemplate(
        "peak_trace",
        "def @f@(@a@):",
        "@best@ = @a@[0]\n"
        "@trk@ = []\n"
        "for @v@ in @a@:\n"
        "    if @v@ > @best@:\n"
        "        @best@ = @v@\n"
        "    @trk@.append(@best@)",
        "return @trk@",
    ),
    CloneTemplate(
        "drop_repeats",
        "def @f@(@a@):",
        "@seen@ = set()\n"
        "@out@ = []\n"
        "for @v@ in @a@:\n"
        "    if @v@ not in @seen@:\n"
        "        @seen@.add(@v@)\n"
        "        @out@.append(@v@)",
        "return @out@",
    ),
    CloneTemplate(
        "lace_lists",
        "def @f@(@a@, @b@):",
        "@out@ = []\n"
        "@i@ = 0\n"
        "while @i@ < len(@a@) or @i@ < len(@b@):\n"
        "    if @i@ < len(@a@):\n"
        "        @out@.append(@a@[@i@])\n"
        "    if @i@ < len(@b@):\n"
        "        @out@.append(@b@[@i@])\n"
        "    @i@ = @i@ + 1",
        "return @out@",
    ),
    CloneTemplate(
        "run_lengths",
        "def @f@(@t@):",
        "@out@ = []\n"
        "@i@ = 0\n"
        "while @i@ < len(@t@):\n"
        "    @j@ = @i@\n"
        "    while @j@ < len(@t@) and @t@[@j@] == @t@[@i@]:\n"
        "        @j@ = @j@ + 1\n"
        "    @out@.append((@t@[@i@], @j@ - @i@))\n"
        "    @i@ = @j@",
        "return @out@",
    ),
    CloneTemplate(
        "vowel_total",
        "def @f@(@t@):",
        "@n@ = 0\n"
        "for @ch@ in @t@.lower():\n"
        "    if @ch@ in 'aeiou':\n"
        "        @n@ = @n@ + 1",
        "return @n@",
    ),
    CloneTemplate(
        "pin_range",
        "def @f@(@a@, @lo@, @hi@):",
        "@out@ = []\n"
        "for @v@ in @a@:\n"
        "    if @v@ < @lo@:\n"
        "        @out@.append(@lo@)\n"
        "    elif @v@ > @hi@:\n"
        "        @out@.append(@hi@)\n"
        "    else:\n"
        "        @out@.append(@v@)",
        "return @out@",
    ),
    CloneTemplate(
        "window_mean",
        "def @f@(@a@, @k@):",
        "@out@ = []\n"
        "for @i@ in range(len(@a@) - @k@ + 1):\n"
        "    @s@ = 0\n"
        "    for @j@ in range(@i@, @i@ + @k@):\n"
        "        @s@ = @s@ + @a@[@j@]\n"
        "    @out@.append(@s@ / @k@)",
        "return @out@",
    ),
    CloneTemplate(
        "paren_check",
        "def @f@(@t@):",
        "@st@ = []\n"
        "@ok@ = True\n"
        "for @ch@ in @t@:\n"
        "    if @ch@ == '(':\n"
        "        @st@.append(@ch@)\n"
        "    elif @ch@ == ')':\n"
        "        if not @st@:\n"
        "            @ok@ = False\n"
        "        else:\n"
        "            @st@.pop()",
        "return @ok@ and not @st@",
    ),
    CloneTemplate(
        "base_digits",
        "def @f@(@n@):",
        "@bits@ = []\n"
        "@v@ = @n@\n"
        "while @v@ > 0:\n"
        "    @v@, @r@ = divmod(@v@, 2)\n"
        "    @bits@.append(str(@r@))\n"
        "@bits@.reverse()",
        "return ''.join(@bits@) or '0'",
    ),
    CloneTemplate(
        "char_bins",
        "def @f@(@t@):",
        "@h@ = {}\n"
        "for @ch@ in @t@:\n"
        "    if @ch@.isalpha():\n"
        "        @k@ = @ch@.lower()\n"
        "        @h@[@k@] = @h@.get(@k@, 0) + 1",
        "return sorted(@h@.items())",
    ),
)


@dataclass
class CloneVariant:
    functionality: str
    variant: int
    repo: str
    filename: str
    file_text: str
    masked_context: str   # cls + file with the core replaced by the mask marker
    dedented_core: str    # cls + core at indentation level zero


def _indent_block(text: str, pad: str) -> str:
    return "".join(pad + line + "\n" for line in text.split("\n"))


# a deliberately small name pool: the same names recur across unrelated
# functionalities, so matching on identifiers misleads a retriever here
_CLONE_VAR_POOL = _VAR_POOL[:24]


def build_clone_variant(template: CloneTemplate, variant: int, rng: random.Random) -> CloneVariant:
    lang = get_language("python")
    slots = sorted(set(_slots_of(template.header) + _slots_of(template.core)
                       + _slots_of(template.footer)))
    names = {}
    picks = rng.sample(_CLONE_VAR_POOL, len(slots) + 2)
    for slot, name in zip(slots, picks):
        names[slot] = name
    names["f"] = rng.choice(_FN_POOL) + str(rng.randrange(100))
    helper_var = picks[-1]
    other_var = picks[-2]

    depth = rng.choice((0, 1, 2))
    pad_fn = " " * (4 * depth)
    pad_body = " " * (4 * (depth + 1))

    header = _fill(template.header, names)
    core0 = _fill(template.core, names)
    footer0 = _fill(template.footer, names)

    lines: list[str] = []
    lines.append(f"# variant {variant} of a small routine collection")
    lines.append(f"{helper_var.upper()}_LIMIT = {rng.randrange(3, 97)}")
    lines.append("")
    if depth >= 1:
        lines.append(f"class Holder{rng.randrange(100)}:")
    if depth >= 2:
        lines.append("    class Inner:")
    lines.append(pad_fn + header)
    prefix = "\n".join(lines) + "\n" + pad_body
    core_indented = _indent_block(core0, pad_body)
    core_in_file = core_indented[len(pad_body):]

    # the trailing helper reuses the core's names so context and target share
    # plenty of identifiers: that is the leakage the masking step removes
    shared = [names[s] for s in slots if s != "f"][:4] or [other_var]
    suffix_lines = []
    suffix_lines.append(_indent_block(footer0, pad_body).rstrip("\n"))
    suffix_lines.append("")
    suffix_lines.append("")
    suffix_lines.append(f"def report_{names['f']}({', '.join(shared)}):")
    suffix_lines.append(f"    {other_var} = {names['f']}({shared[0]})")
    for extra in shared[1:]:
        suffix_lines.append(f"    {other_var} += int(bool({extra}))")
    suffix_lines.append(f"    print('{template.name}', {other_var}, {shared[-1]})")
    suffix_lines.append(f"    return {other_var}")
    suffix = "\n".join(suffix_lines) + "\n"

    file_text = prefix + core_in_file + suffix
    masked_context = lang.cls_token + prefix + MASK_TOKEN + "\n" + suffix
    dedented_core = lang.cls_token + core0 + "\n"
    return CloneVariant(
        functionality=template.name,
        variant=variant,
        repo=f"repo{variant:02d}",
        filename=f"{template.name}_v{variant:02d}.py",
        file_text=file_text,
        masked_context=masked_context,
        dedented_core=dedented_core,
    )


@dataclass
class CloneCorpus:
    corpus_dir: Path
    queries_path: Path
    candidates_path: Path
    qrels_path: Path
    valid_repos: tuple[str, ...]
    train_files: int
    eval_queries: int
    pool_size: int


def write_clone_corpus(out_dir: str | Path, seed: int = 0, functionalities: int = 20,
                       variants: int = 15, train_variants: int = 10,
                       valid_variants: int = 2) -> CloneCorpus:
    """Emit corpus files for training variants and eval files for the rest."""
    if not 1 <= functionalities <= len(CLONE_TEMPLATES):
        raise InvalidBounds(f"'functionalities' must be between 1 and {len(CLONE_TEMPLATES)}, "
                            f"got {functionalities}")
    least = train_variants + valid_variants + 2  # two held out: a query's own one is not relevant
    if variants < least:
        raise InvalidBounds(f"'variants' must be at least train_variants + valid_variants + 2 "
                            f"({least}), got {variants}")
    out_dir = Path(out_dir)
    corpus_dir = out_dir / "corpus"
    eval_dir = out_dir / "eval"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    eval_dir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(seed)
    corpus_count = train_variants + valid_variants
    valid_repos = tuple(f"repo{v:02d}" for v in range(train_variants, corpus_count))

    queries, candidates, qrels = [], [], []
    train_files = 0
    held_by_functionality: dict[str, list[CloneVariant]] = {}
    for template in CLONE_TEMPLATES[:functionalities]:
        for v in range(variants):
            built = build_clone_variant(template, v, rng)
            if v < corpus_count:
                repo_dir = corpus_dir / built.repo
                repo_dir.mkdir(parents=True, exist_ok=True)
                (repo_dir / built.filename).write_text(built.file_text, encoding="utf-8")
                train_files += 1
            else:
                held_by_functionality.setdefault(template.name, []).append(built)

    for name, group in sorted(held_by_functionality.items()):
        for built in group:
            qid = f"q:{name}:{built.variant}"
            tid = f"t:{name}:{built.variant}"
            queries.append({"query_id": qid, "language": "python",
                            "context": built.masked_context})
            candidates.append({"target_id": tid, "language": "python",
                               "text": built.dedented_core})
        for built in group:
            qid = f"q:{name}:{built.variant}"
            for other in group:
                tid = f"t:{name}:{other.variant}"
                qrels.append({"query_id": qid, "target_id": tid, "relevance": 1,
                              "is_original": int(other.variant == built.variant)})

    paths = {name: eval_dir / f"{name}.jsonl" for name in ("queries", "candidates", "qrels")}
    for name, rows in (("queries", queries), ("candidates", candidates), ("qrels", qrels)):
        write_jsonl(paths[name], map(encode_row, rows))

    return CloneCorpus(
        corpus_dir=corpus_dir,
        queries_path=paths["queries"],
        candidates_path=paths["candidates"],
        qrels_path=paths["qrels"],
        valid_repos=valid_repos,
        train_files=train_files,
        eval_queries=len(queries),
        pool_size=len(candidates),
    )


# --------------------------------------------------------------------------
# mixed-language corpus for round-trip / truncation exercises

_PY_FILE = '''\
"""Utility batch @n@ for the @w1@ service."""

import math

@c1@_STEP = @n@


def @f1@(@a@, @b@):
    # fold @w1@ entries into a running total
    @t@ = 0
    for @i@ in range(len(@a@)):
        if @a@[@i@] % 2 == 0:
            @t@ += @a@[@i@] * @b@
        else:
            @t@ -= @a@[@i@]
    return @t@ + @c1@_STEP


def @f2@(@a@):
    @out@ = []
    for @v@ in @a@:
        @out@.append(math.sqrt(abs(@v@)) + @n@)
    return @out@
'''

_JAVA_FILE = """\
package gen.@w1@;

public class @cls@ {
    // generated block @n@
    private int @a@ = @n@;

    public int @f1@(int[] @xs@) {
        int @t@ = 0;
        for (int @i@ = 0; @i@ < @xs@.length; @i@++) {
            if (@xs@[@i@] > @a@) {
                @t@ += @xs@[@i@];
            } else {
                @t@ -= 1;
            }
        }
        return @t@;
    }

    public String @f2@(String @s@) {
        StringBuilder @b@ = new StringBuilder();
        for (int @i@ = @s@.length() - 1; @i@ >= 0; @i@--) {
            @b@.append(@s@.charAt(@i@));
        }
        return @b@.toString() + "@w1@";
    }
}
"""

_C_FILE = """\
#include <stdio.h>
#include <stdlib.h>

#define @c1@_MAX @n@

static int @f1@(const int *@xs@, int @len@) {
    int @t@ = 0;
    for (int @i@ = 0; @i@ < @len@; @i@++) {
        if (@xs@[@i@] % 3 == 0) {
            @t@ += @xs@[@i@];
        }
    }
    return @t@;
}

int @f2@(int @n2@) {
    /* wraps @f1@ for the @w1@ table */
    int @buf@[@c1@_MAX];
    for (int @i@ = 0; @i@ < @c1@_MAX; @i@++) {
        @buf@[@i@] = (@i@ * @n2@) % 17;
    }
    return @f1@(@buf@, @c1@_MAX);
}
"""

_JS_FILE = """\
// @w1@ helpers, build @n@
const @c1@_RATE = @n@;

function @f1@(@xs@) {
  let @t@ = 0;
  for (let @i@ = 0; @i@ < @xs@.length; @i@++) {
    @t@ += @xs@[@i@] > @c1@_RATE ? @xs@[@i@] : -1;
  }
  return @t@;
}

const @f2@ = (@s@) => {
  const @parts@ = @s@.split(/\\s+/);
  return `@w1@:${@parts@.length}:${@f1@([@n@, 2, 3])}`;
};
"""

_WORDS = "alpha beta gamma delta sigma omega lexer ranker folder walker merger binder".split()

_MIXED_TEMPLATES = {
    "python": (_PY_FILE, ".py"),
    "java": (_JAVA_FILE, ".java"),
    "c": (_C_FILE, ".c"),
    "javascript": (_JS_FILE, ".js"),
}


def _fill_mixed(template: str, rng: random.Random) -> str:
    mapping: dict[str, str] = {}
    for slot in _slots_of(template):
        if slot.startswith("n"):
            mapping[slot] = str(rng.randrange(2, 256))
        elif slot.startswith("w"):
            mapping[slot] = rng.choice(_WORDS)
        elif slot == "cls":
            mapping[slot] = "Gen" + rng.choice(_WORDS).capitalize() + str(rng.randrange(100))
        elif slot.startswith("c"):
            mapping[slot] = rng.choice(_WORDS).upper()
        elif slot.startswith("f"):
            mapping[slot] = rng.choice(_FN_POOL) + str(rng.randrange(1000))
        else:
            mapping[slot] = rng.choice(_VAR_POOL)
    return _fill(template, mapping)


def write_mixed_corpus(out_dir: str | Path, seed: int = 0, files_per_lang: int = 30,
                       long_every: int = 6) -> list[Path]:
    """>= files_per_lang files per grammar; every long_every-th one is large."""
    if files_per_lang < 1:
        raise InvalidBounds(f"'files_per_lang' must be at least 1, got {files_per_lang}")
    out_dir = Path(out_dir)
    rng = random.Random(seed)
    written: list[Path] = []
    for lang, (template, ext) in sorted(_MIXED_TEMPLATES.items()):
        for idx in range(files_per_lang):
            repo = f"{lang}_repo{idx % 5}"
            repeats = 14 if long_every and idx % long_every == 0 else rng.randrange(1, 3)
            chunks = [_fill_mixed(template, rng) for _ in range(repeats)]
            if lang == "java":
                # each chunk is a full compilation unit; keep one per file valid-ish
                body = chunks[0] + "".join(
                    c.split("\n", 1)[1].replace("public class", "class", 1) for c in chunks[1:])
            else:
                body = "\n".join(chunks)
            path = out_dir / repo / f"{lang}_file{idx:03d}{ext}"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body, encoding="utf-8")
            written.append(path)
    return sorted(written)
