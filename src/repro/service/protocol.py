"""The service wire protocol: JSON-RPC 2.0 framing, schemas, typed errors.

One request per line, one response per line, everything JSON.  The
protocol layer is the service's outer wall: every byte that arrives is
parsed, shape-checked and schema-validated *here*, so the dispatch and
backend layers only ever see well-typed parameter dicts — and every
failure mode maps to a typed error object (``kind`` + JSON-RPC ``code``
+ message + structured ``data``), never a traceback.

Error taxonomy
--------------

===================  ======  =================================================
kind                 code    meaning
===================  ======  =================================================
``parse_error``      -32700  the line is not valid JSON
``invalid_request``  -32600  valid JSON, not a valid JSON-RPC request
``method_not_found`` -32601  unknown ``method``
``invalid_params``   -32602  params failed schema validation (names the field)
``internal_error``   -32603  unexpected failure (sanitised, no traceback)
``solver_error``     -32000  the solver/characterization layer failed
``deadline_exceeded``-32001  the request's deadline expired
``overloaded``       -32002  admission queue full — explicit backpressure
``unavailable``      -32003  breaker open and no last-good degraded answer
``shutting_down``    -32004  server is draining; retry elsewhere
===================  ======  =================================================

Response tiering
----------------

Every method result (``health``/``ready``/``metrics`` excepted — they
are meta)
carries two extra fields, the tier contract:

=================  ===========================================================
field              meaning
=================  ===========================================================
``tier``           ``1`` analytic fit, ``2`` memoized class model, ``3`` full
                   Algorithm 1 solve (:data:`TIER_NAMES`)
``staleness_s``    seconds since the characterization behind the answer was
                   last refreshed by a completed solve (``0.0`` for tier 3)
=================  ===========================================================

Degraded answers (breaker open) are tier ``2`` with ``degraded: true``
and their true — possibly large — staleness; tier-1 answers addition-
ally carry ``fit_rel_err_bound``, the fit's measured worst-case
relative deviation from the exact Eq. 1 coefficients.

Bandwidths and ratios on the wire carry six decimals (µGbps /
micro-fraction precision — far below the characterization noise), so
responses stay compact and byte-stable across the fast and slow tiers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ServiceError

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "METHODS",
    "TIER_NAMES",
    "Field",
    "decode_request",
    "validate_params",
    "result_response",
    "error_response",
    "encode_message",
    "wire_fragments",
    "encode_wire",
    "encode_result_line",
]

PROTOCOL_VERSION = "2.0"

#: kind -> JSON-RPC error code.  Standard codes where they exist,
#: implementation-defined (-32000..-32099) for the service's own taxonomy.
ERROR_CODES = {
    "parse_error": -32700,
    "invalid_request": -32600,
    "method_not_found": -32601,
    "invalid_params": -32602,
    "internal_error": -32603,
    "solver_error": -32000,
    "deadline_exceeded": -32001,
    "overloaded": -32002,
    "unavailable": -32003,
    "shutting_down": -32004,
}

#: Reserved request param understood by the transport, not the methods.
DEADLINE_PARAM = "deadline_ms"

#: tier tag -> human name, for reports and operator tooling.
TIER_NAMES = {1: "analytic", 2: "class-model", 3: "solve"}


@dataclass(frozen=True)
class Field:
    """Schema for one request parameter."""

    types: tuple
    required: bool = False
    default: Any = None
    choices: tuple | None = None
    minimum: float | None = None
    maximum: float | None = None
    below: float | None = None  # exclusive upper bound
    item_types: tuple | None = None  # element types for list fields
    nonempty: bool = False


#: method -> {param name -> Field}.  ``deadline_ms`` is accepted on every
#: method and handled by the transport layer.
METHODS: dict[str, dict[str, Field]] = {
    "advise": {
        "target": Field((int,), required=True, minimum=0),
        "mode": Field((str,), default="write", choices=("write", "read")),
        "tasks": Field((int,), required=True, minimum=1),
        "avoid_irq_node": Field((bool,), default=False),
        "tolerance": Field((int, float), default=0.05, minimum=0.0, below=1.0),
    },
    "plan": {
        "write_weight": Field((int, float), default=0.5, minimum=0.0, maximum=1.0),
    },
    "predict_eq1": {
        "target": Field((int,), required=True, minimum=0),
        "mode": Field((str,), default="read", choices=("write", "read")),
        "streams": Field((list,), required=True, item_types=(int,), nonempty=True),
    },
    "classify": {
        "target": Field((int,), required=True, minimum=0),
        "mode": Field((str,), default="write", choices=("write", "read")),
    },
    "health": {},
    "ready": {},
    "metrics": {
        "flight": Field((bool,), default=False),
    },
}


def _is_bool(value) -> bool:
    return isinstance(value, bool)


#: types tuple -> the same tuple minus ``bool`` (bool subclasses int, so
#: the non-bool check must exclude it); cached — schemas are static and
#: this sits on the per-request validation path.
_NONBOOL_TYPES: dict[tuple, tuple] = {}


def _type_ok(value, types: tuple) -> bool:
    """Type check that never lets ``True`` pass as an int (or vice versa)."""
    if _is_bool(value):
        return bool in types
    nonbool = _NONBOOL_TYPES.get(types)
    if nonbool is None:
        nonbool = _NONBOOL_TYPES[types] = tuple(
            t for t in types if t is not bool
        )
    return isinstance(value, nonbool)


def _type_names(types: tuple) -> str:
    return " or ".join(t.__name__ for t in types)


def _check_field(method: str, name: str, spec: Field, value):
    """Raise the typed ``invalid_params`` error for the first violation."""
    if not _type_ok(value, spec.types):
        problem = (
            f"must be {_type_names(spec.types)}, got {type(value).__name__}"
        )
    elif spec.choices is not None and value not in spec.choices:
        problem = f"must be one of {list(spec.choices)}, got {value!r}"
    elif spec.minimum is not None and value < spec.minimum:
        problem = f"must be >= {spec.minimum}, got {value!r}"
    elif spec.maximum is not None and value > spec.maximum:
        problem = f"must be <= {spec.maximum}, got {value!r}"
    elif spec.below is not None and value >= spec.below:
        problem = f"must be < {spec.below}, got {value!r}"
    elif spec.item_types is not None and (
        bad := [v for v in value if not _type_ok(v, spec.item_types)]
    ):
        problem = (
            f"must contain only {_type_names(spec.item_types)}, "
            f"got {bad[0]!r}"
        )
    elif spec.nonempty and not value:
        problem = "must not be empty"
    else:
        return
    raise ServiceError(
        "invalid_params",
        f"method {method!r}: param {name!r} {problem}",
        data={"param": name},
    )


def _needs_full_check(spec: Field) -> bool:
    return (
        spec.choices is not None
        or spec.minimum is not None
        or spec.maximum is not None
        or spec.below is not None
        or spec.item_types is not None
        or spec.nonempty
    )


#: method -> (allowed param names incl. ``deadline_ms``,
#:            ((name, spec, has-constraints-beyond-type), ...)).
#: Precompiled once — schemas are static and validation sits on the
#: per-request path; type-only fields skip the full constraint walk.
_COMPILED: dict[str, tuple[frozenset, tuple]] = {
    method: (
        frozenset(schema) | {DEADLINE_PARAM},
        tuple(
            (name, spec, _needs_full_check(spec))
            for name, spec in schema.items()
        ),
    )
    for method, schema in METHODS.items()
}

_NO_PARAMS: dict = {}


def validate_params(method: str, params: Mapping | None) -> dict:
    """Schema-validate ``params`` for ``method``; returns a filled dict.

    Defaults are applied, unknown parameters are rejected *by name*, and
    every violation raises :class:`~repro.errors.ServiceError` of kind
    ``invalid_params`` (or ``method_not_found`` for an unknown method).
    """
    compiled = _COMPILED.get(method)
    if compiled is None:
        raise ServiceError(
            "method_not_found",
            f"unknown method {method!r}; choose from {sorted(METHODS)}",
        )
    allowed, fields = compiled
    if params:
        for key in params:
            if key not in allowed:
                raise ServiceError(
                    "invalid_params",
                    f"method {method!r}: unknown param {key!r} "
                    f"(accepts {sorted(METHODS[method]) + [DEADLINE_PARAM]})",
                    data={"param": key},
                )
    else:
        params = _NO_PARAMS
    out: dict = {}
    for name, spec, constrained in fields:
        if name in params:
            value = params[name]
            if constrained or not _type_ok(value, spec.types):
                _check_field(method, name, spec, value)
            out[name] = value
        elif spec.required:
            raise ServiceError(
                "invalid_params",
                f"method {method!r}: missing required param {name!r}",
                data={"param": name},
            )
        else:
            out[name] = spec.default
    return out


def decode_request(line: str) -> tuple[Any, str, dict, "float | None"]:
    """Parse one request line into ``(id, method, raw params, deadline_ms)``.

    Raises :class:`~repro.errors.ServiceError` (``parse_error`` /
    ``invalid_request``) on malformed input; params are *not* yet
    schema-validated (that is :func:`validate_params`, once the method
    is known to exist).
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError("parse_error", f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServiceError(
            "invalid_request",
            f"request must be a JSON object, got {type(obj).__name__}",
        )
    if obj.get("jsonrpc") != PROTOCOL_VERSION:
        raise ServiceError(
            "invalid_request",
            f"request field 'jsonrpc' must be {PROTOCOL_VERSION!r}, "
            f"got {obj.get('jsonrpc')!r}",
        )
    if "id" not in obj or not isinstance(obj["id"], (str, int)) or _is_bool(obj["id"]):
        raise ServiceError(
            "invalid_request", "request field 'id' must be a string or integer"
        )
    method = obj.get("method")
    if not isinstance(method, str):
        raise ServiceError(
            "invalid_request", "request field 'method' must be a string"
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ServiceError(
            "invalid_request",
            f"request field 'params' must be an object, "
            f"got {type(params).__name__}",
        )
    deadline = params.get(DEADLINE_PARAM)
    if deadline is not None and (
        not _type_ok(deadline, (int, float)) or deadline < 0
    ):
        raise ServiceError(
            "invalid_params",
            f"param {DEADLINE_PARAM!r} must be a non-negative number, "
            f"got {deadline!r}",
            data={"param": DEADLINE_PARAM},
        )
    return obj["id"], method, params, deadline


def result_response(req_id, result: Mapping) -> dict:
    """A JSON-RPC success envelope.

    A ``dict`` result (including the pre-encoded answers from the warm
    tiers) is embedded as-is — the dispatch layer always hands over a
    fresh payload; other mappings are copied.
    """
    if not isinstance(result, dict):
        result = dict(result)
    return {"jsonrpc": PROTOCOL_VERSION, "id": req_id, "result": result}


def error_response(req_id, exc: ServiceError) -> dict:
    """A JSON-RPC error envelope from a typed :class:`ServiceError`."""
    error = {
        "code": ERROR_CODES.get(exc.kind, ERROR_CODES["internal_error"]),
        "kind": exc.kind,
        "message": str(exc),
    }
    if exc.data:
        error["data"] = dict(exc.data)
    return {"jsonrpc": PROTOCOL_VERSION, "id": req_id, "error": error}


#: The one wire encoder, built once — ``json.dumps`` with keyword
#: arguments constructs a fresh ``JSONEncoder`` per call, a measurable
#: cost at tier-1 answer rates.
_WIRE_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_message(message: Mapping) -> str:
    """One wire line (sorted keys, compact separators — byte-stable)."""
    return _WIRE_ENCODE(message) + "\n"


#: Key token the fragment splitter splices the live staleness around.
_STALENESS_TOKEN = '"staleness_s":'

#: Envelope glue between the encoded id and the result fragments; the
#: envelope keys ``id`` < ``jsonrpc`` < ``result`` are spelled in the
#: sorted order the wire encoder itself would emit.
_ENVELOPE_MID = ',"jsonrpc":"' + PROTOCOL_VERSION + '","result":'


def wire_fragments(payload: Mapping, tier: int) -> tuple[str, str]:
    """Pre-encode a memoized result, split around the staleness value.

    ``(pre, post)`` is the payload — stamped at ``tier`` — run through
    the wire encoder once, with the staleness digits excised;
    :func:`encode_result_line` splices a live staleness (and request
    id) back in, byte-identical to encoding the stamped dict afresh.
    Only sound for service payloads: no string value in them ever
    contains the staleness key token.
    """
    stamped = dict(payload)
    stamped["tier"] = tier
    stamped["staleness_s"] = 0.0
    encoded = _WIRE_ENCODE(stamped)
    start = encoded.index(_STALENESS_TOKEN) + len(_STALENESS_TOKEN)
    end = start
    while encoded[end] not in ",}":
        end += 1
    return encoded[:start], encoded[end:]


def encode_wire(value) -> str:
    """One value through the wire encoder (no framing newline).

    For pre-computing fragments that splice into
    :func:`encode_result_line` — same encoder, same bytes.
    """
    return _WIRE_ENCODE(value)


def encode_result_line(req_id, pre: str, staleness_s: float, post: str) -> str:
    """A success wire line spliced from pre-encoded result fragments.

    Byte-identical to ``encode_message(result_response(req_id, ...))``
    for the stamped payload behind ``pre``/``post``: ``repr`` of the
    (already rounded) staleness float matches the encoder's float
    formatting, and the envelope glue carries the sorted key order.
    """
    rid = str(req_id) if type(req_id) is int else _WIRE_ENCODE(req_id)
    return (
        '{"id":' + rid + _ENVELOPE_MID
        + pre + repr(staleness_s) + post + "}\n"
    )
