"""Built-in group registry and the structured group-spec loader.

A group spec is a JSON-able dict {"kind": ..., "params": {...}}; registry
files map names to specs and can extend (or shadow) the built-ins.
"""

from __future__ import annotations

import json

from .errors import ContractError
from .groups import (AbelianProduct, CayleyTable, Cyclic, Dihedral, FreeAbelian,
                     FreeGroup, GroupOracle, Heisenberg, HeisenbergMod,
                     Lamplighter, ZdMod, quaternion8)
from .rewriting import RewritingGroup, triangle_group
from .serialize import reading

BUILTIN_SPECS = {
    "z": {"kind": "free_abelian", "params": {"d": 1}},
    "z2": {"kind": "free_abelian", "params": {"d": 2}},
    "z3": {"kind": "free_abelian", "params": {"d": 3}},
    "free2": {"kind": "free", "params": {"k": 2}},
    "free3": {"kind": "free", "params": {"k": 3}},
    "heisenberg": {"kind": "heisenberg", "params": {}},
    "lamplighter": {"kind": "lamplighter", "params": {}},
    "c2": {"kind": "cyclic", "params": {"n": 2}},
    "c3": {"kind": "cyclic", "params": {"n": 3}},
    "c4": {"kind": "cyclic", "params": {"n": 4}},
    "c8": {"kind": "cyclic", "params": {"n": 8}},
    "c9": {"kind": "cyclic", "params": {"n": 9}},
    "c2xc2": {"kind": "abelian", "params": {"orders": [2, 2]}},
    "c3xc3": {"kind": "abelian", "params": {"orders": [3, 3]}},
    "d4": {"kind": "dihedral", "params": {"n": 4}},
    "q8": {"kind": "quaternion8", "params": {}},
    "heisenberg_mod_2": {"kind": "heisenberg_mod", "params": {"m": 2}},
    "heisenberg_mod_3": {"kind": "heisenberg_mod", "params": {"m": 3}},
    "heisenberg_mod_4": {"kind": "heisenberg_mod", "params": {"m": 4}},
    "t334": {"kind": "triangle", "params": {"k": 4}},
    "t335": {"kind": "triangle", "params": {"k": 5}},
}

# the finite p-groups exercised by the filtration cross-checks
P_GROUP_NAMES = {
    2: ["c2", "c4", "c2xc2", "c8", "d4", "q8"],
    3: ["c3", "c9", "c3xc3", "heisenberg_mod_3"],
}


# kind -> its constructor and the names of its integer parameters, in order
KINDS = {
    "free": (FreeGroup, ("k",)),
    "free_abelian": (FreeAbelian, ("d",)),
    "heisenberg": (Heisenberg, ()),
    "lamplighter": (Lamplighter, ()),
    "cyclic": (Cyclic, ("n",)),
    "dihedral": (Dihedral, ("n",)),
    "quaternion8": (quaternion8, ()),
    "heisenberg_mod": (HeisenbergMod, ("m",)),
    "zd_mod": (ZdMod, ("d", "m")),
    "triangle": (triangle_group, ("k",)),
}


def _typed(value, kind: type, name: str):
    """value, if its type is exactly kind: JSON 4.9, "9" and true are not ints."""
    if type(value) is not kind:
        raise ContractError(f"group parameter {name} must be {kind.__name__}, got {value!r}")
    return value


def make_group(spec: dict) -> GroupOracle:
    if not isinstance(spec, dict):
        raise ContractError(f"group spec must be an object, got {spec!r}")
    with reading("group spec"):
        kind = spec.get("kind")
        params = dict(spec.get("params", {}))
        if "generators" in spec and "generators" not in params:
            params["generators"] = spec["generators"]
        if kind in KINDS:
            make, names = KINDS[kind]
            return make(*(_typed(params[name], int, name) for name in names))
        if kind == "abelian":
            return AbelianProduct(tuple(_typed(n, int, "orders") for n in params["orders"]))
        if kind == "rewriting_backed":
            inverse_letters = _typed(params.get("inverse_letters", True), bool,
                                     "inverse_letters")
            return RewritingGroup(params["generators"], params["relators"],
                                  name=spec.get("name"), inverse_letters=inverse_letters)
        if kind == "finite_cayley_table":
            return CayleyTable(params["table"], params["generators"],
                               name=spec.get("name", "cayley"),
                               identity=_typed(params.get("identity", 0), int, "identity"))
    raise ContractError(f"unknown group kind {kind!r}")


def load_registry(path: str | None = None) -> dict:
    registry = dict(BUILTIN_SPECS)
    if path:
        with reading("registry"), open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ContractError("registry file must map names to group specs")
        registry.update(user)
    return registry


def get_group(name: str, registry_path: str | None = None) -> GroupOracle:
    if not isinstance(name, str):
        raise ContractError(f"a group name must be a string, got {name!r}")
    registry = load_registry(registry_path)
    if name not in registry:
        raise ContractError(
            f"unknown group {name!r}; available: {', '.join(sorted(registry))}"
        )
    return make_group(registry[name])
