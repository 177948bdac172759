"""Parser, printer, expansion and metavariable collection."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from ddlmc import formula as fm
from ddlmc.formula import ParseError, atoms, expand, metavars, parse, render
from ddlmc.model import PreferenceModel
from ddlmc.schemas import SCHEMAS
from ddlmc.semantics import EvalRule, slicer, truth_set

from oracle import random_formula


def test_nodes_are_equal_only_within_their_class():
    a, b = fm.Atom("a"), fm.Atom("b")
    assert fm.Or(a, b) != fm.And(a, b)
    assert fm.Oblig(a, b) != fm.Perm(a, b)
    assert fm.Atom("p") != fm.MetaVar("p")
    assert fm.Atom("p") != "p"


def test_equal_nodes_hash_as_their_fields():
    f, g = parse("O(p/T) & ~q"), parse("O(p / T) & ~q")
    assert f == g and f is not g
    assert hash(f) == hash(g) == hash((f.left, f.right))
    assert hash(fm.Atom("p")) == hash(("p",))
    assert hash(fm.Top()) == hash(())


def test_nodes_are_built_from_their_fields():
    a, b = fm.Atom("a"), fm.Atom("b")
    assert fm.Oblig(consequent=a, antecedent=b) == fm.Oblig(a, antecedent=b) == fm.Oblig(a, b)
    for build in (
        lambda: fm.Oblig(a),
        lambda: fm.Oblig(a, b, a),
        lambda: fm.Oblig(a, consequent=b),
        lambda: fm.Oblig(a, condition=b),
        lambda: fm.Top(a),
    ):
        with pytest.raises(TypeError):
            build()


def test_nodes_are_immutable():
    f = parse("p | q")
    with pytest.raises(AttributeError):
        f.left = fm.Atom("r")
    with pytest.raises(AttributeError):
        del f.left
    with pytest.raises(AttributeError):
        f.extra = 1
    assert f == parse("p | q")


def test_node_repr_names_the_fields():
    f = parse("O(p/T) & ~q")
    text = (
        "And(left=Oblig(consequent=Atom(name='p'), antecedent=Top()), "
        "right=Not(child=Atom(name='q')))"
    )
    assert repr(f) == text
    assert eval(text, vars(fm)) == f


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_nodes_survive_pickle_and_deepcopy(name):
    f = SCHEMAS[name]
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert copied == f and repr(copied) == repr(f)


def test_parse_obligation():
    assert parse("O(~B / A | B)") == fm.Oblig(
        fm.Not(fm.Atom("B")), fm.Or(fm.Atom("A"), fm.Atom("B"))
    )


def test_parse_preference():
    assert parse("A >= B") == fm.PrefGeq(fm.Atom("A"), fm.Atom("B"))
    assert parse("A > B") == fm.PrefGt(fm.Atom("A"), fm.Atom("B"))
    assert parse("(A >= B)") == fm.PrefGeq(fm.Atom("A"), fm.Atom("B"))


def test_parse_box_implication():
    assert parse("[](p -> q)") == fm.Box(fm.Implies(fm.Atom("p"), fm.Atom("q")))


def test_parse_precedence():
    # ~ binds tighter than &, & than |, | than ->, -> than <->
    assert parse("~p & q") == fm.And(fm.Not(fm.Atom("p")), fm.Atom("q"))
    assert parse("p & q | r") == fm.Or(fm.And(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))
    assert parse("p | q -> r") == fm.Implies(fm.Or(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))
    assert parse("p -> q <-> r") == fm.Iff(fm.Implies(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))
    # -> and <-> associate to the right
    assert parse("p -> q -> r") == fm.Implies(fm.Atom("p"), fm.Implies(fm.Atom("q"), fm.Atom("r")))


def test_parse_constants_and_metavars():
    assert parse("T") == fm.TOP
    assert parse("F") == fm.BOT
    assert parse("?x") == fm.MetaVar("x")
    # O and P are operators only when followed by a parenthesis
    assert parse("O & P") == fm.And(fm.Atom("O"), fm.Atom("P"))
    assert parse("P(p / q)") == fm.Perm(fm.Atom("p"), fm.Atom("q"))


def test_parse_whitespace_insensitive():
    assert parse("O ( p / T )") == parse("O(p/T)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("p @ q")
    with pytest.raises(ParseError):
        parse("O(p / q")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError, match=r"expected a formula, found '\)' \(at position 0\)"):
        parse(")")
    with pytest.raises(ParseError):
        parse("A >= B >= C")  # non-associative


# Formulas nested k levels deep: in parentheses, in the syntax tree, or
# both.  The conjunction chain is parsed by a loop but is a tree k deep.
_NESTINGS = {
    "parentheses": lambda k: "(" * k + "p" + ")" * k,
    "negations": lambda k: "~" * (k - 1) + "p",
    "obligations": lambda k: "O(" * (k - 1) + "p" + " / T)" * (k - 1),
    "conjunction chain": lambda k: "p" + " & p" * (k - 1),
    "implication chain": lambda k: "p -> " * (k - 1) + "p",
}


@pytest.mark.parametrize("nesting", sorted(_NESTINGS))
def test_parse_nesting_limit(nesting):
    deepest = parse(_NESTINGS[nesting](fm.MAX_DEPTH))
    assert parse(render(deepest)) == deepest
    m = PreferenceModel(2, (3, 2), {"p": 1})
    for rule in EvalRule:
        assert truth_set(deepest, m, rule) == truth_set(expand(deepest), m, rule)
    with pytest.raises(ParseError, match=f"nested more than {fm.MAX_DEPTH} levels deep"):
        parse(_NESTINGS[nesting](fm.MAX_DEPTH + 1))


def test_trees_deeper_than_max_depth_from_the_constructors():
    # 1 000 nested negations never went through parse's limit: render and
    # expand recurse, so they reject the tree; truth_set keeps its own stack
    f = fm.Atom("p")
    for _ in range(1000):
        f = fm.Not(f)
    for walk in (render, expand):
        with pytest.raises(ValueError, match=f"nested more than {fm.MAX_DEPTH} levels deep"):
            walk(f)
    m = PreferenceModel(2, (3, 2), {"p": 1})
    for rule in EvalRule:
        assert truth_set(f, m, rule) == 1
        assert truth_set(fm.Not(f), m, rule) == 2
    # the first missing atom, left to right, is the one named
    with pytest.raises(ValueError, match="'a' has no valuation entry"):
        truth_set(parse("O(p / a) & b"), m, EvalRule.MAX, strict_atoms=True)


def test_trees_of_any_depth_hash_compare_and_print():
    # a set or dict of deep trees needs hash and ==, an error message needs
    # repr, and a library caller may pickle or copy them: none of them may
    # recurse
    def negations(depth, leaf):
        f = leaf
        for _ in range(depth):
            f = fm.Not(f)
        return f

    f, g = negations(1000, fm.MetaVar("x")), negations(1000, fm.MetaVar("x"))
    deeper, other = negations(1001, fm.MetaVar("x")), negations(1000, fm.MetaVar("y"))
    assert f == g and f is not g and hash(f) == hash(g)
    assert len({f, g, deeper, other}) == 3
    assert f != deeper and f != other and f != fm.Atom("x")
    assert repr(f) == "Not(child=" * 1000 + "MetaVar(name='x')" + ")" * 1000
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert copied == f and copied is not f
    # a subtree shared by two parents is rebuilt once and stays shared
    p = fm.Atom("p")
    shared = pickle.loads(pickle.dumps(fm.And(deeper, fm.Oblig(deeper, p))))
    assert shared.left is shared.right.consequent and shared.left == deeper
    shallow = parse("O(p & ~q / T) -> []?x")
    assert repr(shallow) == (
        "Implies(left=Oblig(consequent=And(left=Atom(name='p'), right=Not(child=Atom(name='q'))), "
        "antecedent=Top()), right=Box(child=MetaVar(name='x')))"
    )


def test_render_examples():
    assert render(fm.Oblig(fm.Atom("p"), fm.TOP)) == "O(p / T)"
    assert render(fm.PrefGt(fm.Atom("A"), fm.Atom("B"))) == "A > B"
    assert render(fm.Not(fm.Not(fm.Atom("p")))) == "~~p"
    assert render(fm.Box(fm.Implies(fm.Atom("p"), fm.Atom("q")))) == "[](p -> q)"
    assert str(parse("O(p / q) & ~r")) == "O(p / q) & ~r"


def test_render_parenthesizes_associativity():
    a, b, c = fm.Atom("a"), fm.Atom("b"), fm.Atom("c")
    assert render(fm.Implies(fm.Implies(a, b), c)) == "(a -> b) -> c"
    assert render(fm.Implies(a, fm.Implies(b, c))) == "a -> b -> c"
    assert render(fm.And(a, fm.And(b, c))) == "a & (b & c)"
    assert render(fm.And(fm.And(a, b), c)) == "a & b & c"
    assert render(fm.PrefGeq(fm.PrefGeq(a, b), c)) == "(a >= b) >= c"


def test_roundtrip_fuzz():
    rng = random.Random(20240810)
    for _ in range(600):
        f = random_formula(rng, depth=6, atom_names=("p", "q", "r"), allow_meta=True)
        assert parse(render(f)) == f, render(f)


def test_expand_examples():
    p = fm.Atom("p")
    assert expand(fm.Diamond(p)) == fm.Not(fm.Box(fm.Not(p)))
    assert expand(fm.PrefGeq(fm.Atom("A"), fm.Atom("B"))) == fm.Not(
        fm.Oblig(fm.Not(fm.Atom("A")), fm.Or(fm.Atom("A"), fm.Atom("B")))
    )
    assert expand(p) == p
    assert expand(fm.Perm(p, fm.Atom("q"))) == fm.Not(fm.Oblig(fm.Not(p), fm.Atom("q")))


_CORE = (fm.Atom, fm.MetaVar, fm.Top, fm.Not, fm.Or, fm.Box, fm.Oblig)


def _is_core(f) -> bool:
    if not isinstance(f, _CORE):
        return False
    if isinstance(f, (fm.Atom, fm.MetaVar, fm.Top)):
        return True
    if isinstance(f, (fm.Not, fm.Box)):
        return _is_core(f.child)
    if isinstance(f, fm.Or):
        return _is_core(f.left) and _is_core(f.right)
    return _is_core(f.consequent) and _is_core(f.antecedent)


def test_expand_core_and_idempotent():
    rng = random.Random(77)
    for _ in range(300):
        f = random_formula(rng, depth=4, atom_names=("p", "q"), allow_meta=True)
        e = expand(f)
        assert _is_core(e)
        assert expand(e) == e


def test_metavars():
    assert metavars(fm.Oblig(fm.MetaVar("x"), fm.MetaVar("y"))) == {"x", "y"}
    assert metavars(fm.Atom("p")) == frozenset()
    assert metavars(fm.And(fm.MetaVar("x"), fm.MetaVar("x"))) == {"x"}


def test_atoms():
    f = parse("O(p / q) & ?x | r")
    assert atoms(f) == {"p", "q", "r"}
    assert metavars(f) == {"x"}


def test_subformulas_lists_each_node_before_its_operands():
    f = parse("O(p / ?x) & ~[]T")
    assert list(fm.subformulas(f)) == [
        f, f.left, fm.Atom("p"), fm.MetaVar("x"), f.right, f.right.child, fm.TOP,
    ]
    for bad in (3, fm.Not("p"), fm.Oblig(fm.Atom("p"), None)):
        for walk in (atoms, render, expand, lambda f: slicer(f, EvalRule.MAX, ())):
            with pytest.raises(TypeError, match="not a formula"):
                walk(bad)
