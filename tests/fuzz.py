"""Random text edits for the reader fuzz tests: each edit inserts, replaces or
deletes one character, drawn mostly from the characters that numbers, keys
and CSV rows are made of."""

from __future__ import annotations

from hypothesis import strategies as st

CHARACTERS = st.sampled_from("0123456789.,-+=#_eEnaNA \n") | st.characters()


def edits(max_size: int = 4):
    """1 to `max_size` edits, each (operation, position, character)."""
    return st.lists(st.tuples(st.sampled_from(("insert", "replace", "delete")),
                              st.integers(0, 10_000), CHARACTERS),
                    min_size=1, max_size=max_size)


def mutate(text: str, changes) -> str:
    """`text` with `changes` applied in turn; a position wraps to the text's length."""
    chars = list(text)
    for op, at, ch in changes:
        if op == "insert":
            chars.insert(at % (len(chars) + 1), ch)
        elif chars and op == "replace":
            chars[at % len(chars)] = ch
        elif chars:
            del chars[at % len(chars)]
    return "".join(chars)
