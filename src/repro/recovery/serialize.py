"""JSON codec for durable records (WAL + checkpoint).

The store's canonical change unit is the :class:`~repro.objstore.store.Delta`
— full before/after attribute snapshots — so the durable formats are thin
encodings of deltas (their redo half: the after-image), class definitions,
and attribute values.  Attribute values may contain :class:`OID` references,
tuples, sets, and nested maps (the data model's ``LIST``/``MAP``/``OID``
types), none of which JSON represents natively; those are wrapped in
``{"$": tag, "v": ...}`` envelopes so a decode round-trip reproduces the
value *exactly* (tuple stays tuple, set stays set) — the crash-sweep tests
compare recovered store snapshots for strict equality.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.objstore.objects import OID
from repro.objstore.store import Delta
from repro.objstore.types import AttributeDef, ClassDef


#: the leaf types JSON represents natively — the overwhelmingly common
#: case on the WAL/journal hot path, dispatched before the isinstance
#: chain (exact-type check: a bool/int/str *subclass* still falls
#: through to the chain and, unrecognised, passes through unchanged)
_JSON_NATIVE = frozenset({str, int, float, bool, type(None)})


def encode_value(value: Any) -> Any:
    """Return a JSON-representable encoding of an attribute value."""
    if value.__class__ in _JSON_NATIVE:
        return value
    if isinstance(value, OID):
        return {"$": "oid", "v": [value.class_name, value.number]}
    if isinstance(value, tuple):
        return {"$": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, frozenset):
        return {"$": "frozenset",
                "v": sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, set):
        return {"$": "set",
                "v": sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, dict):
        if "$" not in value and all(isinstance(key, str) for key in value):
            return {key: encode_value(val) for key, val in value.items()}
        return {"$": "map",
                "v": [[encode_value(key), encode_value(val)]
                      for key, val in value.items()]}
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get("$")
        if tag == "oid":
            return OID(value["v"][0], value["v"][1])
        if tag == "tuple":
            return tuple(decode_value(item) for item in value["v"])
        if tag == "set":
            return set(decode_value(item) for item in value["v"])
        if tag == "frozenset":
            return frozenset(decode_value(item) for item in value["v"])
        if tag == "map":
            return {decode_value(key): decode_value(val)
                    for key, val in value["v"]}
        return {key: decode_value(val) for key, val in value.items()}
    return value


def encode_attrs(attrs: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Encode an attribute snapshot (None passes through)."""
    if attrs is None:
        return None
    return {name: encode_value(value) for name, value in attrs.items()}


def decode_attrs(attrs: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Invert :func:`encode_attrs`."""
    if attrs is None:
        return None
    return {name: decode_value(value) for name, value in attrs.items()}


def encode_class_def(class_def: ClassDef) -> Dict[str, Any]:
    """Encode a class definition (own attributes only; inheritance is
    re-resolved by the schema on restore)."""
    return {
        "name": class_def.name,
        "superclass": class_def.superclass,
        "attributes": [
            {
                "name": attr.name,
                "attr_type": attr.attr_type,
                "required": attr.required,
                "default": encode_value(attr.default),
                "indexed": attr.indexed,
            }
            for attr in class_def.attributes
        ],
    }


def decode_class_def(data: Dict[str, Any]) -> ClassDef:
    """Invert :func:`encode_class_def`, returning a fresh unresolved
    :class:`ClassDef` (``Schema.define_class`` resolves inheritance)."""
    return ClassDef(
        data["name"],
        tuple(
            AttributeDef(
                attr["name"],
                attr["attr_type"],
                required=attr["required"],
                default=decode_value(attr["default"]),
                indexed=attr["indexed"],
            )
            for attr in data["attributes"]
        ),
        superclass=data["superclass"],
    )


def encode_operation(op: Any) -> Dict[str, Any]:
    """Encode an :class:`~repro.objstore.operations.Operation` descriptor.

    Operations are the flight recorder's unit of stimulus (the journal
    records the *intent*, not the resulting delta — replay re-executes the
    operation so the rules it triggers fire again)."""
    data: Dict[str, Any] = {"kind": op.kind}
    if op.kind == "define-class":
        data["class_def"] = encode_class_def(op.class_def)
    elif op.kind == "drop-class":
        data["class_name"] = op.class_name
    elif op.kind == "create":
        data["class_name"] = op.class_name
        data["attrs"] = encode_attrs(op.attrs)
    elif op.kind == "update":
        data["oid"] = [op.oid.class_name, op.oid.number]
        data["changes"] = encode_attrs(op.changes)
    elif op.kind == "delete":
        data["oid"] = [op.oid.class_name, op.oid.number]
    else:
        raise ValueError("cannot encode operation kind %r" % op.kind)
    return data


def decode_operation(data: Dict[str, Any]) -> Any:
    """Invert :func:`encode_operation`."""
    from repro.objstore.operations import (CreateObject, DefineClass,
                                           DeleteObject, DropClass,
                                           UpdateObject)

    kind = data["kind"]
    if kind == "define-class":
        return DefineClass(decode_class_def(data["class_def"]))
    if kind == "drop-class":
        return DropClass(data["class_name"])
    if kind == "create":
        return CreateObject(data["class_name"], decode_attrs(data["attrs"]) or {})
    if kind == "update":
        return UpdateObject(OID(data["oid"][0], data["oid"][1]),
                            decode_attrs(data["changes"]) or {})
    if kind == "delete":
        return DeleteObject(OID(data["oid"][0], data["oid"][1]))
    raise ValueError("cannot decode operation kind %r" % kind)


def encode_delta(delta: Delta) -> Dict[str, Any]:
    """Encode one store delta for the WAL: only what redo reads, so the
    before-image (``old_attrs``) is left out."""
    return {
        "kind": delta.kind,
        "class_name": delta.class_name,
        "oid": ([delta.oid.class_name, delta.oid.number]
                if delta.oid is not None else None),
        "new_attrs": encode_attrs(delta.new_attrs),
        "class_def": (encode_class_def(delta.class_def)
                      if delta.class_def is not None else None),
    }


def decode_delta(data: Dict[str, Any]) -> Delta:
    """Invert :func:`encode_delta`; records of older logs that still carry
    ``old_attrs`` decode it too."""
    oid = OID(data["oid"][0], data["oid"][1]) if data["oid"] is not None else None
    class_def = (decode_class_def(data["class_def"])
                 if data["class_def"] is not None else None)
    return Delta(
        kind=data["kind"],
        class_name=data["class_name"],
        oid=oid,
        old_attrs=decode_attrs(data.get("old_attrs")),
        new_attrs=decode_attrs(data["new_attrs"]),
        class_def=class_def,
    )
