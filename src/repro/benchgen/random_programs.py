"""Random well-formed Boolean programs for differential testing.

The generator produces small but structurally varied programs (branches,
loops, calls with parameters and return values, nondeterminism, global
updates) from a seed, so the property-based tests can check that the
symbolic Getafix algorithms, the explicit BEBOP-style solver and the
MOPED-style pushdown solver all agree on reachability verdicts.
"""

from __future__ import annotations

import random
from typing import List

from ..boolprog import Program, check_program, parse_program

__all__ = ["random_program", "random_program_source"]


def _expression(rng: random.Random, variables: List[str], depth: int = 2) -> str:
    choices = ["T", "F", "*"] + variables
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(choices)
    op = rng.choice(["&", "|", "^"])
    left = _expression(rng, variables, depth - 1)
    right = _expression(rng, variables, depth - 1)
    if rng.random() < 0.3:
        left = f"!{left}"
    return f"({left} {op} {right})"


def _statements(
    rng: random.Random,
    variables: List[str],
    callees: List[str],
    budget: int,
    depth: int = 2,
) -> List[str]:
    lines: List[str] = []
    count = rng.randint(1, max(1, budget))
    for _ in range(count):
        kind = rng.random()
        if kind < 0.35 or not variables:
            target = rng.choice(variables) if variables else None
            if target is None:
                lines.append("skip;")
            else:
                lines.append(f"{target} := {_expression(rng, variables)};")
        elif kind < 0.5 and depth > 0:
            condition = _expression(rng, variables)
            then_branch = _statements(rng, variables, callees, budget - 1, depth - 1)
            else_branch = _statements(rng, variables, callees, budget - 1, depth - 1)
            lines.append(
                f"if ({condition}) then\n"
                + "\n".join(then_branch)
                + "\nelse\n"
                + "\n".join(else_branch)
                + "\nfi"
            )
        elif kind < 0.62 and depth > 0:
            condition = rng.choice(variables)
            body = _statements(rng, variables, callees, 1, depth - 1)
            # Guarantee progress so the loop body shrinks the state space.
            body.append(f"{condition} := {condition} & *;")
            lines.append(f"while ({condition}) do\n" + "\n".join(body) + "\nod")
        elif kind < 0.85 and callees:
            callee = rng.choice(callees)
            target = rng.choice(variables)
            argument = _expression(rng, variables)
            lines.append(f"{target} := {callee}({argument});")
        else:
            lines.append("skip;")
    return lines


def random_program_source(seed: int, num_globals: int = 2, num_helpers: int = 2) -> str:
    """Source text of a random program; the target label is ``main:target``."""
    rng = random.Random(seed)
    global_names = [f"g{i}" for i in range(num_globals)]
    helper_names = [f"h{i}" for i in range(num_helpers)]
    parts: List[str] = []
    if global_names:
        parts.append("decl " + ", ".join(global_names) + ";")

    main_locals = ["x", "y"]
    main_vars = global_names + main_locals
    main_body = _statements(rng, main_vars, helper_names, budget=4)
    guard = _expression(rng, main_vars)
    parts.append(
        "main() begin\n"
        "decl x, y;\n" + "\n".join(main_body) + f"\nif ({guard}) then\n  target: skip;\nfi\nend"
    )
    for index, name in enumerate(helper_names):
        local_vars = global_names + ["a", "t"]
        # Helpers may call later helpers only, so call chains are acyclic:
        # the generated programs never recurse.
        callable_helpers = helper_names[index + 1 :]
        body = _statements(rng, local_vars, callable_helpers, budget=3)
        parts.append(
            f"{name}(a) begin\n"
            "decl t;\n" + "\n".join(body) + f"\nreturn {_expression(rng, local_vars)};\nend"
        )
    return "\n\n".join(parts)


def random_program(seed: int, num_globals: int = 2, num_helpers: int = 2) -> Program:
    """A parsed and statically checked random program."""
    program = parse_program(random_program_source(seed, num_globals, num_helpers), name=f"random-{seed}")
    check_program(program)
    return program
