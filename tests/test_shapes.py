"""One tuple per shape in the rank memos' values (young.shape_table).

The LR slots (schur._lr_mult), the fusion products (cb.fusion_expand), the
half vectors (cb._fuse) and the quantum route's products (qgrass._orbit_mult)
live as long as the process, and their shapes recur from one value to the
next.  The LR kernel (schur._lr_walk) hands out the one shape table's
tuples, cb passes the shapes it makes through young.share_shapes, and
qgrass takes each orbit representative from the table, so an equal shape is
one tuple however many values hold it.  The table is cleared before it
passes its bound, and a shape made after a clear is an equal tuple, so
clearing changes no answer.
"""

from pathlib import Path

from cblocks import cb, qgrass, schur, young
from cblocks.cb import degree_m04, vanishing_report, witten_rank
from cblocks.schur import coinvariant_rank
from cblocks.young import BlockSetup, SlWeight, parse_weight_list

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def _readme_setups():
    """The setup of every README input that names one, from its golden echo line."""
    setups = []
    for path in sorted(GOLDEN.glob("*.txt")):
        argv = path.read_text().splitlines()[0].split(" ")
        if "--weights" in argv:
            r, level = (int(argv[argv.index(flag) + 1]) for flag in ("--r", "--level"))
            setups.append((r, level, argv[argv.index("--weights") + 1]))
    return setups


SETUPS = _readme_setups() + [
    (2, 40, ",".join(["20w1"] * 6)),
    (3, 7, "[2,1],[2,2],[2,2],[3,2,1],[3,3],[3,2]"),
    # three points: one half is a single diagram, _fuse's seed entry
    (2, 2, "w1,w1,w1"),
    (2, 3, "2w1,w1+w2,w1"),
]


def _cold():
    """Empty every functools cache of cb, qgrass, schur and young, and the shape table."""
    for module in (cb, qgrass, schur, young):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()
    young._SHAPES.clear()


def _answers():
    """Both ranks of every setup, and the degree breakdown of each four-point one."""
    out = []
    for r, level, text in SETUPS:
        setup = BlockSetup(r, level, parse_weight_list(text, r))
        rep = vanishing_report(setup)
        out.append((rep.rank_cb, rep.rank_classical))
        if setup.n == 4:
            out.append(degree_m04(setup))
    return out


def test_every_shape_the_rank_memos_hold_is_one_tuple(monkeypatch):
    _cold()    # before the wrappers hide the caches from it
    held = {}
    slots = {}

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            value = real(*args)
            held[id(value)] = value
            if name == "_lr_slot":
                slots[args] = value
            return value
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((schur, "_lr_slot"), (cb, "fusion_expand"), (cb, "_fuse"),
                         (qgrass, "_orbit_mult")):
        recording(module, name)
    _answers()
    # the quantum route: each term of an _orbit_mult value is (u0, rot, deg, coeff)
    for r, level, text in SETUPS:
        witten_rank(BlockSetup(r, level, parse_weight_list(text, r)))
    representatives = [term[0] for value in held.values() if isinstance(value, tuple)
                       for term in value]
    assert len(representatives) > 1000
    shapes = representatives + [p for value in held.values() if not isinstance(value, tuple)
                                for p in (value[1] if isinstance(value, list) else value)]
    assert len(shapes) > 1000
    # a product with an empty factor is the kernel's early return
    early = [value[1] for (p, q, _), value in slots.items() if not p or not q]
    assert early and all(young._SHAPES[u] is u for value in early for u in value)
    assert len({id(p) for p in shapes}) == len(set(shapes))
    assert all(young._SHAPES[p] is p for p in shapes)


def test_clearing_the_shape_table_changes_no_answer(monkeypatch):
    _cold()
    expected = _answers()
    # a small bound clears the table many times inside one contraction, and a
    # vector larger than the bound is shared with nothing
    bound = 12
    monkeypatch.setattr(young, "_SHAPES_BOUND", bound)
    real = young.shape_table
    sizes = []

    def watched(room):
        # the table's size once the previous caller's shapes are in
        sizes.append(len(young._SHAPES))
        return real(room)
    monkeypatch.setattr(schur, "shape_table", watched)
    monkeypatch.setattr(young, "shape_table", watched)
    _cold()
    assert _answers() == expected
    sizes.append(len(young._SHAPES))
    assert max(sizes) <= bound
    assert any(b < a for a, b in zip(sizes, sizes[1:]))    # the table was cleared
    _cold()


FORM_MEMOS = ("_normal_memo", "_complement_memo", "_shift_memo")


def test_clearing_the_shape_form_memos_changes_no_answer(monkeypatch):
    _cold()
    expected = _answers()
    # every read of a memo first empties all three, so each form is made anew
    memos = [getattr(young, name) for name in FORM_MEMOS]
    reads = dict.fromkeys(FORM_MEMOS, 0)

    def clearing(name, memo):
        def read(*args):
            reads[name] += 1
            for each in memos:
                each.cache_clear()
            return memo(*args)
        return read
    for name, memo in zip(FORM_MEMOS, memos):
        monkeypatch.setattr(young, name, clearing(name, memo))
    _cold()
    assert _answers() == expected
    assert all(reads.values()), reads
    _cold()


def test_a_box_above_the_memo_bound_leaves_the_shape_form_memos_empty():
    _cold()
    # sl3, six 50w1: the classical route's 3 x 100 box holds 176,851 shapes
    assert coinvariant_rank(2, (SlWeight(2, (50,)),) * 6) == 586976
    # the 300-row staircase with w1 and w300 at level 300, both routes
    stairs = SlWeight(300, range(300, 0, -1))
    setup = BlockSetup(300, 300, (stairs, SlWeight(300, (1,)), SlWeight(300, (1,) * 300)))
    rep = vanishing_report(setup)
    assert (rep.rank_cb, rep.rank_classical) == (0, 0)
    assert [getattr(young, name).cache_info().currsize for name in FORM_MEMOS] == [0, 0, 0]
    # a small box fills them: halves of three diagrams, so the classical
    # route also shifts columns
    vanishing_report(BlockSetup(3, 7, parse_weight_list("[2,1],[2,2],[2,2],[3,2,1],[3,3],[3,2]", 3)))
    assert all(getattr(young, name).cache_info().currsize for name in FORM_MEMOS)
    _cold()
