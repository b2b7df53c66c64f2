"""Rule instances and budgeted cofinal-validity probing.

A rule pairs a pattern with an extension of it; it is cofinally valid when
every covering of the premise extends to the conclusion above every
regressive bound.  At finite scale the prober reports either
valid-on-sample or a concrete (covering, bound) counterexample; a probe
that a covering budget stops early reports undecided-within-budget instead.

Run:  python3 demos/06_rules_and_cofinal_validity.py
"""

from patternforge import (
    Pattern,
    build_hierarchy,
    closure,
    format_term,
    make_arith_ext,
    make_generic,
    make_reflect1_down,
    parse_term,
    trivial_pattern,
)
from patternforge.covering import test_cofinal_validity

ladder = build_hierarchy(
    closure([parse_term("1"), parse_term("w"), parse_term("w^(2)")]),
    parse_term("w^(3)"),
)


def probe(label, rule, H):
    verdict = test_cofinal_validity(rule.premise, rule.conclusion, H)
    print(f"{label} [{rule.kind}]")
    print("  conclusion universe:",
          "{" + ", ".join(format_term(x, True) for x in rule.conclusion.universe) + "}")
    if verdict.valid:
        print(f"  valid on sample ({verdict.coverings_checked} coverings checked)")
    else:
        h, phi = verdict.counterexample
        pairs = ", ".join(
            f"{format_term(a, True)}->{format_term(b, True)}" for a, b in h.assignment
        )
        print(f"  counterexample: covering {pairs}")
        print("  with bounds",
              {format_term(k, True): format_term(v, True) for k, v in phi.bounds})
    print()


P = trivial_pattern([parse_term("1"), parse_term("w")])
probe("identity rule", make_generic(P, P), ladder)

# a host whose carrier contains the extension's image under every covering;
# no fresh indecomposables appear, so extensions are vacuously above any bound
roomy = build_hierarchy(
    closure([parse_term("1"), parse_term("w+1"), parse_term("w^(2)+w"),
             parse_term("w^(2)+1")]),
    parse_term("w^(3)"),
)
probe("arithmetic extension by w+1 (roomy host)",
      make_arith_ext(P, [parse_term("w+1")]), roomy)

reflectable = Pattern(closure([parse_term("1"), parse_term("w^(2)")]),
                      le1=[(parse_term("1"), parse_term("w^(2)"))])
rule = make_reflect1_down(reflectable, parse_term("1"), parse_term("w^(2)"),
                          [parse_term("w^(2)")])
probe("downward reflection of {w^2} below 1 <=1 w^2", rule, ladder)
print("The reflection demands a fresh indecomposable strictly between the")
print("images of 1 and w^2; this carrier offers none, so the probe finds a")
print("counterexample.  In an unbounded host the same rule extends freely.")
