"""Seeded program families with known verdicts.

Every family in ``FAMILIES`` is a function ``(size, rng, leaky) ->
source``, deterministic per rng. The secure program verifies; its leaky
twin corrupts the middle statement (reads the secret ``h`` in place of the
low ``l``, or for ``specs`` swaps the middle spec for an invalid one) and
must be REJECTED. The seed only picks constants, and only where they cannot
change the proof's shape (branch thresholds keep their order), so every
seed asks the verifier for the same amount of work.

Families:

- ``straight``: N pairs ``x := x + c*l; y := y + x;`` (the term-growth cliff)
- ``ifs``:      N sequential if/else on a low variable
- ``loops``:    N sequential loops, each with an invariant
- ``par``:      ``par`` nested N deep, each branch performing on a counter
- ``procs``:    N small procedures, all called from ``main``
- ``specs``:    N resource specs cycling through three kinds whose validity
                lands on different tiers: ``ctr`` and ``log`` are proved by
                the unbounded differencing tier (absint); ``queue`` carries
                a history clause and falls to the bounded and random tiers.
                The leaky twin swaps one spec for a non-commuting one.
"""

HEADER = """procedure main(l: int, h: int) returns (out: int)
  requires low(l)
  ensures low(out)
{
"""


def _leak_at(size):
    """The statement index the leaky twin corrupts."""
    return size // 2


def straight(size, rng, leaky):
    leak = _leak_at(size) if leaky else -1
    body = ["  var x: int := 0;", "  var y: int := 0;"]
    for i in range(size):
        src = "h" if i == leak else "l"
        body.append(f"  x := x + {rng.randrange(1, 10)}*{src};")
        body.append("  y := y + x;")
    body.append("  out := y;")
    return HEADER + "\n".join(body) + "\n}\n"


def ifs(size, rng, leaky):
    leak = _leak_at(size) if leaky else -1
    body = ["  var x: int := 0;"]
    base, step = rng.randrange(-50, 50), rng.randrange(1, 4)
    for i in range(size):
        src = "h" if i == leak else "l"
        k, a, b = base + step * i, rng.randrange(1, 9), rng.randrange(1, 9)
        body.append(f"  if ({src} > {k}) {{ x := x + {a}; }} else {{ x := x - {b}; }}")
    body.append("  out := x;")
    return HEADER + "\n".join(body) + "\n}\n"


def loops(size, rng, leaky):
    leak = _leak_at(size) if leaky else -1
    body = ["  var x: int := 0;"]
    for i in range(size):
        src = "h" if i == leak else "l"
        body.append(f"  var i{i}: int := 0;")
        body.append(
            f"  while (i{i} < {src}) invariant low(i{i}) && low(x) "
            f"{{ x := x + {rng.randrange(1, 9)}; i{i} := i{i} + 1; }}"
        )
    body.append("  out := x;")
    return HEADER + "\n".join(body) + "\n}\n"


COUNTER = """resource Counter {
  state: int;
  alpha(v) = v;
  shared action Add(a: int) {
    apply(v, a) = v + a;
    requires low(a);
  }
}

"""


def par(size, rng, leaky):
    leak = _leak_at(size + 1) if leaky else -1

    def nest(k, ind):
        src = "h" if k == leak else "l"
        leaf = f"{ind}  atomic c {{ perform c.Add({src} + {rng.randrange(0, 100)}); }}"
        if k == size:
            return [leaf]
        return [f"{ind}par {{", leaf, f"{ind}}} and {{"] + nest(k + 1, ind + "  ") + [f"{ind}}}"]

    body = ["  share c: Counter := 0;"] + nest(0, "  ") + ["  out := unshare c;"]
    return COUNTER + HEADER + "\n".join(body) + "\n}\n"


def procs(size, rng, leaky):
    leak = _leak_at(size) if leaky else -1
    out = []
    for i in range(size):
        ret = "r := a + s;" if i == leak else f"r := a + {rng.randrange(0, 100)};"
        out.append(
            f"procedure p{i}(a: int, s: int) returns (r: int)\n"
            f"  requires low(a)\n  ensures low(r)\n{{\n  {ret}\n}}\n"
        )
    body = ["  var x: int := 0;", "  var t: int := 0;"]
    for i in range(size):
        body += [f"  t := call p{i}(l, h);", "  x := x + t;"]
    body.append("  out := x;")
    return "\n".join(out) + "\n" + HEADER + "\n".join(body) + "\n}\n"


SPEC_KINDS = {
    "ctr": """resource {name} {{
  state: int;
  alpha(v) = v;
  shared action Add(a: int) {{
    apply(v, a) = v + {c}*a;
    requires low(a);
  }}
}}
""",
    "log": """resource {name} {{
  state: seq<int>;
  alpha(v) = len(v);
  scope int -1 .. 1;
  scope size 2;
  shared action Append(a: int) {{
    apply(v, a) = append(v, a + {c});
  }}
}}
""",
    "queue": """resource {name} {{
  state: pair<seq<int>, int>;
  alpha(v) = v;
  inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
  scope size 2;
  unique action Prod(a: int) {{
    apply(v, a) = pair(append(fst(v), a + {c}), snd(v));
    requires low(a);
  }}
  unique action Cons(a: unit) {{
    apply(v, a) = pair(fst(v), snd(v) + 1);
    returns(v, a) = at(fst(v), snd(v));
    enabled(v) = snd(v) < len(fst(v));
    history(v) = take(fst(v), snd(v));
  }}
}}
""",
    # Not commutative and not abstraction-preserving: invalid (Def. 3.1).
    "bad": """resource {name} {{
  state: int;
  alpha(v) = v;
  shared action Set(a: int) {{
    apply(v, a) = a + {c};
  }}
}}
""",
}
SPEC_CYCLE = ("ctr", "log", "queue")


def specs(size, rng, leaky):
    # R0 stays a counter: main shares it.
    leak = max(1, _leak_at(size)) if leaky else -1
    decls = []
    for i in range(size):
        kind = "bad" if i == leak else SPEC_CYCLE[i % len(SPEC_CYCLE)]
        decls.append(SPEC_KINDS[kind].format(name=f"R{i}", c=rng.randrange(1, 9)))
    body = [
        "  share c: R0 := 0;",
        "  par {",
        "    atomic c { perform c.Add(l); }",
        "  } and {",
        f"    atomic c {{ perform c.Add(l + {rng.randrange(1, 9)}); }}",
        "  }",
        "  out := unshare c;",
    ]
    return "\n".join(decls) + "\n" + HEADER + "\n".join(body) + "\n}\n"


FAMILIES = {
    "straight": straight,
    "ifs": ifs,
    "loops": loops,
    "par": par,
    "procs": procs,
    "specs": specs,
}

