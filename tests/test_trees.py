from pittslab.kernel import check_tree
from pittslab.trees import parse_tree, print_tree


def test_print_tree_of_a_deep_chain():
    # 1,200 alternating weakenings and contractions over P |- P
    lines = [
        f'{"  " * i}({"wL" if d % 2 else "cL"} "{"P, P" if d % 2 else "P"} |- P"'
        for i, d in enumerate(range(1200, 0, -1))
    ]
    text = "\n".join(lines + ["  " * 1200 + '(ax "P |- P"' + ")" * 1201])
    tree = parse_tree(text)
    assert check_tree(tree).ok
    assert print_tree(tree) == text


def test_print_tree_keeps_the_names_of_alpha_variants():
    # equal up to renaming, so one key, but each prints its own binder
    text = '(wL "exists X. X, exists Y. Y |- exists X. X"\n  (ax "exists Y. Y |- exists X. X"))'
    assert print_tree(parse_tree(text)) == text
