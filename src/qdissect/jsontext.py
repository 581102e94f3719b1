"""The JSON text of the CLI's records, written without the json package.

Every payload has a fixed shape, and its JSON is written from text by
``_object`` and ``_list_text``, each value at the depth where it lands, byte
for byte as ``json.dumps(record, sort_keys=True, indent=2)`` would write it.
``qdissect.cli`` and ``qdissect.rows`` both write through it; it imports
neither, so that ``python -m qdissect.cli`` compiles and runs ``cli.py``
once.
"""

from __future__ import annotations

import sys

# the C escaper json.encoder uses, imported without loading the json package
from _json import encode_basestring_ascii as _quote

FORMAT_VERSION = "1"

# the newline and indent that start a line at depth 0..6 of a payload
_PAD = tuple("\n" + "  " * depth for depth in range(7))


def _list_text(items, pad: str, brackets: str = "[]") -> str:
    """The JSON list of items, each the text of a value written for the depth
    below pad, with its closing bracket at the start of the line pad starts;
    with brackets "{}", the JSON object of items that are member texts.  No
    payload list or object is empty."""
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _object(members, pad: str) -> str:
    """The JSON object of members, (str key, value text) pairs in sorted key
    order, as _list_text writes it."""
    return _list_text([f"{_quote(key)}: {text}" for key, text in members], pad, "{}")


def _emit_json(command: str, params: dict, payload) -> None:
    """The record of one request: its parameters, str, int or None each, and
    its payload, the members of an object at depth 1."""
    parameters = [(key, "null" if value is None else _quote(value) if type(value) is str
                   else str(value)) for key, value in sorted(params.items())]
    sys.stdout.write(_object((
        ("command", _quote(command)),
        ("format_version", _quote(FORMAT_VERSION)),
        ("parameters", _object(parameters, _PAD[1])),
        ("payload", _object(payload, _PAD[1])),
    ), _PAD[0]) + "\n")
