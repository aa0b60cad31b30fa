"""The pretraining-corpus contamination scan: which records' feature strings
occur verbatim in a text corpus.

The scan groups its regex keys by first character and compiles a group's
regex only when the corpus holds that character, so a small corpus pays for
few compiles, and it stops matching a key once every pattern the key can
find is found.

The contamination command runs once per dataset, so its time on a small
corpus is mostly start-up. This module therefore imports nothing but ``re``
and ``collections.abc``; ``txf.analysis`` re-exports the scan. The
contamination command counts the flags it returns.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence

__all__ = ["contamination_scan"]

# The scan's regex spells only each pattern's first _DEPTH characters:
# re.compile recurses once per nested group and fails at about 500 of them.
_DEPTH = 32


def _longest_key_regex(keys: Iterable[str]) -> re.Pattern:
    """A regex matching the longest key that starts at a position: a
    character trie with a group at each branch and an optional group where
    a key ends. The scan passes keys that share their first character, so
    the regex opens with that literal, and search skips, in C, to the next
    place it occurs."""
    trie: dict = {}
    for key in keys:
        node = trie
        for ch in key:
            node = node.setdefault(ch, {})
        node[""] = {}

    def spell(node: dict) -> str:
        branches = [re.escape(ch) + spell(child) for ch, child in node.items() if ch]
        if not branches:
            return ""
        body = "|".join(branches)
        if "" in node:
            return f"(?:{body})?"
        return body if len(branches) == 1 else f"(?:{body})"

    return re.compile(spell(trie))


def contamination_scan(
    features: Sequence[tuple[str, Sequence[str]]],
    corpus_chunks: Iterable[str],
    max_chars: int = 512,
) -> dict[str, bool]:
    """Flag records whose feature strings occur verbatim in a text corpus:
    {record_id: flagged} for every record, in the order of features.

    Each feature contributes its first max_chars characters as a search
    pattern; a record is flagged when any of its patterns appears as a
    contiguous substring anywhere in the corpus. A max_chars below 1 raises
    ValueError: a negative cap would cut the end off each feature, and a
    zero cap would flag nothing.

    The corpus is streamed in one pass that stops once every pattern is
    found. The patterns' first _DEPTH characters are the keys, grouped by
    their first character. Per group, a regex finds the longest key at each
    position; the key flags every pattern it begins with, and a longer
    pattern is compared with the text there. Each chunk is scanned behind
    the previous text's last characters, so a pattern that spans chunks is
    found.

    A group's regex is compiled when a chunk first holds its character. A
    key retires once all the patterns it flags are found and no longer
    pattern that begins with it is pending; a group whose keys have all
    retired is dropped. A regex keeps spelling retired keys until a chunk
    begins with at most half the keys it spells live; the group's next
    regex spells only the live ones. So a group's compiles together spell
    at most twice its keys.
    """
    if max_chars < 1:
        raise ValueError(f"max_chars must be at least 1, not {max_chars}")
    records: dict[str, list[str]] = {}
    for record_id, values in features:
        for value in values:
            target = value[:max_chars]
            if target:
                records.setdefault(target, []).append(record_id)
    # Per key, the patterns it begins with, and the longer patterns that
    # begin with it and are not found yet.
    short = {
        key: [key[:k] for k in range(1, len(key) + 1) if key[:k] in records]
        for key in {p[:_DEPTH] for p in records}
    }
    long: dict[str, list[str]] = {}
    for pattern in records:
        if len(pattern) > _DEPTH:
            long.setdefault(pattern[:_DEPTH], []).append(pattern)
    longest = max(map(len, records), default=0)
    # Per first character, the keys that still have a pattern to find, and
    # the search compiled for them with the number of keys it spells.
    live: dict[str, set[str]] = {}
    for key in short:
        live.setdefault(key[0], set()).add(key)
    compiled: dict[str, tuple[Callable, int]] = {}

    found: set[str] = set()
    carry = ""
    for chunk in corpus_chunks:
        if len(found) == len(records):
            break
        text = carry + chunk
        checked: set[str] = set()  # at most the chunk's length in characters
        room = len(chunk)
        # A key matches only where its first character is, so each group
        # scans the text alone, and a group whose character is absent is
        # not compiled.
        for first in [c for c in live if c in text]:
            keys = live[first]
            # Halving before each rebuild keeps a group's compiles under
            # twice its first one.
            if first not in compiled or 2 * len(keys) <= compiled[first][1]:
                compiled[first] = _longest_key_regex(keys).search, len(keys)
            search = compiled[first][0]
            pos = 0
            while len(found) < len(records) and (match := search(text, pos)):
                key = match[0]
                start = match.start()
                # Matches may overlap: the next search starts one character on.
                pos = start + 1
                if key not in keys:
                    continue  # retired, but spelled until the next rebuild
                pending = long.get(key)
                if pending:
                    window = text[start : start + longest]
                    if window in checked:
                        continue
                    if room > 0:
                        checked.add(window)
                        room -= len(window)
                    found.update(p for p in pending if window.startswith(p))
                    pending = long[key] = [p for p in pending if p not in found]
                prefixes = short.pop(key, ())
                found.update(prefixes)
                # Each pattern the key begins with is a key too, whose own
                # patterns are all among them: it retires. So does this key,
                # unless a long pattern that begins with it is pending.
                keys.difference_update(prefixes)
                if pending:
                    keys.add(key)
                else:
                    keys.discard(key)
                    if not keys:
                        del live[first], compiled[first]
                        break
        carry = text[max(0, len(text) - longest + 1) :]

    flagged = {record_id for pattern in found for record_id in records[pattern]}
    return {record_id: record_id in flagged for record_id, _ in features}
