"""The project's JSON boundary: strict parsing and canonical rendering.

Strict parsing
--------------
``json.loads`` silently keeps the *last* occurrence of a repeated
object key, so a document like ``{"numRuns": 1, "numRuns": 100}``
sails through "strict" schema validation with a surprise value — the
validator never sees the first binding.  Both service payloads and
campaign files are contracts where that silence is a bug: the whole
validation-first stance (DESIGN.md S21) is that a document the server
does not fully understand must never run.

:func:`loads_strict` closes the hole.  Objects are parsed into an
intermediate pairs form (``object_pairs_hook``) and then resolved in a
single walk that tracks the dotted path of every object, so a repeated
key raises a path-addressed
:class:`~repro.errors.ValidationError` — ``execution.numRuns:
duplicate object key`` — instead of silently shadowing the earlier
binding.  Everything else (types, ordering, numbers) is exactly
``json.loads``; well-formed documents round-trip unchanged, including
key order, which campaign ``combination`` sweeps rely on.

Canonical rendering
-------------------
:func:`render_document` owns the byte contract of every result
document: service results, ``--output`` files, campaign reports and
fault-campaign JSON.  Its bytes are exactly ``json.dumps(doc,
sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)``
plus a newline, but the stdlib only runs its C encoder without an
indent, so that call walks every value in Python.  The renderer walks
only the containers that hold containers and hands every other
container, whole, to the C encoder built with the item separator of
its depth (DESIGN.md S34).
"""

from __future__ import annotations

import functools
import json
from json.encoder import (
    JSONEncoder,
    c_make_encoder,
    encode_basestring_ascii,
)
from typing import Any, Callable, List, Tuple

from repro.errors import ValidationError

__all__ = ["loads_strict", "render_document"]


class _Pairs:
    """Marker wrapper for an object's raw key/value pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: List[Tuple[str, Any]]) -> None:
        self.pairs = pairs


def _resolve(node: Any, path: str) -> Any:
    if isinstance(node, _Pairs):
        out = {}
        for key, value in node.pairs:
            where = f"{path}.{key}" if path else str(key)
            if key in out:
                raise ValidationError(
                    "duplicate object key", path=where, value=key,
                )
            out[key] = _resolve(value, where)
        return out
    if isinstance(node, list):
        return [
            _resolve(item, f"{path}[{index}]")
            for index, item in enumerate(node)
        ]
    return node


def loads_strict(text: str) -> Any:
    """Parse JSON, rejecting duplicate object keys with a field path.

    Raises
    ------
    json.JSONDecodeError
        For malformed JSON (same as :func:`json.loads`).
    ValidationError
        For a repeated key anywhere in the document, addressed by its
        dotted path (e.g. ``settings.regular.faults.seed``).
    """
    return _resolve(json.loads(text, object_pairs_hook=_Pairs), "")


# ----------------------------------------------------------------------
# Canonical rendering
# ----------------------------------------------------------------------
_CONTAINERS = (dict, list, tuple)
_REJECT = JSONEncoder().default  # TypeError, worded as json.dumps words it


@functools.lru_cache(maxsize=None)
def _level(depth: int) -> Tuple[str, Callable[[Any, int], Any]]:
    """``"\\n"`` plus the indent of ``depth``, and the C encoder whose
    item separator starts a new item at that depth."""
    newline = "\n" + "  " * depth
    # markers=None: no cycle check; a document is a tree.
    return newline, c_make_encoder(
        None, _REJECT, encode_basestring_ascii, None, ": ",
        "," + newline, True, False, False,
    )


def _key(key: Any) -> str:
    """An object key as ``json.dumps`` coerces it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _level(0)[1](key, 0)[0]  # repr, or ValueError if not finite
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, "
        f"not {key.__class__.__name__}"
    )


def _render(node: Any, depth: int, out: List[str]) -> None:
    """Append ``node``, its items at ``depth + 1``, to ``out``."""
    inner, encode = _level(depth + 1)
    if isinstance(node, dict):
        opener, closer, values = "{", "}", node.values()
    elif isinstance(node, (list, tuple)):
        opener, closer, values = "[", "]", node
    else:
        out.extend(encode(node, 0))
        return
    if not node:
        out.append(opener + closer)
        return
    for value in values:
        if isinstance(value, _CONTAINERS):
            break
    else:
        # All scalars: one C call renders "{a,<inner>b}"; only the
        # newlines after the opener and before the closer are missing.
        text = "".join(encode(node, 0))
        out.append(opener + inner + text[1:-1] + _level(depth)[0] + closer)
        return
    out.append(opener)
    separator = inner
    if closer == "}":
        for key, value in sorted(node.items()):
            out.append(separator + encode_basestring_ascii(_key(key)) + ": ")
            separator = "," + inner
            if isinstance(value, _CONTAINERS):
                _render(value, depth + 1, out)
            else:
                out.extend(encode(value, 0))
    else:
        for value in node:
            out.append(separator)
            separator = "," + inner
            if isinstance(value, _CONTAINERS):
                _render(value, depth + 1, out)
            else:
                out.extend(encode(value, 0))
    out.append(_level(depth)[0] + closer)


def render_document(doc: Any) -> str:
    """Deterministic serialization: equal documents -> equal bytes.

    Sorted keys, two-space indent, ASCII output, a trailing newline,
    and ``ValueError`` for NaN or infinity — byte for byte what
    ``json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "),
    allow_nan=False) + "\\n"`` returns, including its key coercion and
    its errors for values JSON cannot hold.
    """
    out: List[str] = []
    _render(doc, 0, out)
    out.append("\n")
    return "".join(out)
