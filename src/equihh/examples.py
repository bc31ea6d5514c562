"""Bundled example inputs.

E1  trivial Z/2 action on the point (hull cap 2): two sign objects.
E2  Z/2 swapping two disjoint points: one symmetrized generator.
E3  one-object group algebra k[Z/2]: Kunneth material.
E4  exterior algebra on a degree-1 generator: truncation behavior.
E5  trivial S3 action on the point: nonabelian class structure, three
    irreducible roster objects (hull cap 6 so the symmetrization fits).

Each bundle carries the base category, the action, declared equivariant
objects, generator objects, and the expected report parameters.  The
document forms used by the CLI are produced in ``documents``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .dgcat import (
    DgCategory,
    DgFunctor,
    algebra_category,
    disjoint_points_category,
    identity_functor,
)
from .errors import InputError
from .groups import (
    FiniteGroup,
    GroupAction,
    Representation,
    regular_representation,
    sign_representation_s,
    strict_action,
    trivial_action,
    trivial_representation,
)
from .scalars import QQ


@dataclass
class DeclaredObject:
    """Roster entry as written in an input document: alpha matrices are
    flat {(row, col, degree, base label): scalar} dicts per element."""

    name: str
    underlying: tuple
    alpha_entries: dict


@dataclass
class ExampleBundle:
    name: str
    description: str
    base: DgCategory
    group: FiniteGroup = None
    action: GroupAction = None
    declared: list = dc_field(default_factory=list)
    generators: list = dc_field(default_factory=list)
    hh_names: list = dc_field(default_factory=list)
    representations: dict = dc_field(default_factory=dict)
    degrees: tuple = (0, 0)
    bar_cap: int = None


def point_category():
    return algebra_category(QQ, "pt", [("1", 0)], {})


def group_algebra_z2_category():
    return algebra_category(QQ, "pt", [("1", 0), ("g", 0)], {("g", "g"): {"1": 1}})


def exterior_category(degree=1):
    return algebra_category(QQ, "pt", [("1", 0), ("e", degree)], {("e", "e"): {}})


def swap_points_action():
    base = disjoint_points_category(QQ, ["x1", "x2"])
    swap_obj = {"x1": "x2", "x2": "x1"}
    mor_map = {}
    for x in ["x1", "x2"]:
        mor_map[(x, x)] = {(0, "1"): base.basis_mor(swap_obj[x], swap_obj[x], 0, "1")}
        other = "x2" if x == "x1" else "x1"
        mor_map[(x, other)] = {}
    swap = DgFunctor(base, base, swap_obj, mor_map, name="swap")
    group = FiniteGroup.cyclic(2, names=["e", "s"])
    action = strict_action(
        group, base, {"e": identity_functor(base), "s": swap}, name="swap points"
    )
    return base, group, action


def s3_standard_representation(group):
    mats = {
        "123": [[1, 0], [0, 1]],
        "132": [[1, 0], [1, -1]],
        "213": [[-1, 1], [0, 1]],
        "231": [[0, -1], [1, -1]],
        "312": [[-1, 1], [-1, 0]],
        "321": [[0, -1], [-1, 0]],
    }
    return Representation(group, 2, mats, name="standard")


def example_e1() -> ExampleBundle:
    base = point_category()
    group = FiniteGroup.cyclic(2, names=["e", "s"])
    action = trivial_action(group, base)
    one = QQ.one
    declared = [
        DeclaredObject("plus", ("pt",), {
            "e": {(0, 0, 0, "1"): one},
            "s": {(0, 0, 0, "1"): one},
        }),
        DeclaredObject("minus", ("pt",), {
            "e": {(0, 0, 0, "1"): one},
            "s": {(0, 0, 0, "1"): -one},
        }),
    ]
    sign = Representation(group, 1, {"e": [[1]], "s": [[-1]]}, name="sign")
    return ExampleBundle(
        name="E1",
        description="trivial Z/2 on the point; sign objects plus and minus",
        base=base,
        group=group,
        action=action,
        declared=declared,
        generators=["pt"],
        hh_names=["plus", "minus"],
        representations={
            "trivial": trivial_representation(group),
            "sign": sign,
            "regular": regular_representation(group),
        },
        degrees=(-1, 0),
    )


def example_e2() -> ExampleBundle:
    base, group, action = swap_points_action()
    return ExampleBundle(
        name="E2",
        description="Z/2 swapping two points; symmetrized generators",
        base=base,
        group=group,
        action=action,
        declared=[],
        generators=["x1", "x2"],
        hh_names=[],  # defaults to the symmetrizations of the generators
        representations={
            "trivial": trivial_representation(group),
            "regular": regular_representation(group),
        },
        degrees=(0, 0),
    )


def example_e3() -> ExampleBundle:
    return ExampleBundle(
        name="E3",
        description="one-object group algebra k[Z/2]",
        base=group_algebra_z2_category(),
        degrees=(-2, 0),
    )


def example_e4() -> ExampleBundle:
    return ExampleBundle(
        name="E4",
        description="exterior algebra on a degree-1 generator (truncated windows)",
        base=exterior_category(1),
        degrees=(-2, 0),
        bar_cap=8,
    )


def example_e5() -> ExampleBundle:
    base = point_category()
    group = FiniteGroup.symmetric(3)
    action = trivial_action(group, base)
    one = QQ.one
    std = s3_standard_representation(group)
    sign = sign_representation_s(group)
    declared = [
        DeclaredObject("triv", ("pt",), {
            g: {(0, 0, 0, "1"): one} for g in group.elements
        }),
        DeclaredObject("sgn", ("pt",), {
            g: {(0, 0, 0, "1"): sign.entry(g, 0, 0)} for g in group.elements
        }),
        DeclaredObject("std", ("pt", "pt"), {
            g: {
                (i, j, 0, "1"): std.entry(g, i, j)
                for i in range(2)
                for j in range(2)
                if std.entry(g, i, j)
            }
            for g in group.elements
        }),
    ]
    return ExampleBundle(
        name="E5",
        description="trivial S3 on the point; three irreducible objects",
        base=base,
        group=group,
        action=action,
        declared=declared,
        generators=["pt"],
        hh_names=["triv", "sgn", "std"],
        representations={
            "trivial": trivial_representation(group),
            "regular": regular_representation(group),
        },
        degrees=(0, 0),
    )


BUILDERS = {
    "E1": example_e1,
    "E2": example_e2,
    "E3": example_e3,
    "E4": example_e4,
    "E5": example_e5,
}


def get_example(name: str) -> ExampleBundle:
    try:
        return BUILDERS[name]()
    except KeyError as exc:
        raise InputError(f"unknown example {name!r}") from exc
