"""JSON text, byte for byte what json.dumps(obj, indent=2) gives, plus a newline.

With an indent, json.dumps runs the standard library's pure-Python encoder;
its C encoder serves only indent=None. The reports this package writes are
plain trees of dicts with str keys, lists, tuples, str, int, bool and None,
and this module spells those out directly. Any other value (a float, a dict
with a non-str key, a subclass) is handed to json.dumps, whose text is then
indented to its depth: JSON text has no newline except between tokens, since
a string escapes its own.
"""

from __future__ import annotations

from json import dumps
from json.encoder import encode_basestring_ascii as _string


def emit(obj) -> str:
    """json.dumps(obj, indent=2) + "\\n".

    A value json.dumps rejects raises its TypeError. A container holding
    itself raises RecursionError here, where json.dumps reports the cycle.
    """
    return _text(obj, "\n") + "\n"


def _text(obj, nl: str) -> str:
    """obj's JSON text at the depth whose line break plus indent is nl."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                return dumps(obj, indent=2).replace("\n", nl)
            # str and int values, most of a report, skip the recursive call
            value_kind = type(value)
            if value_kind is str:
                text = _string(value)
            elif value_kind is int:
                text = int.__repr__(value)
            else:
                text = _text(value, inner)
            items.append(_string(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is str:
        return _string(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        if all([type(x) is int for x in obj]):
            items = map(int.__repr__, obj)
        else:
            items = [_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return dumps(obj, indent=2).replace("\n", nl)
