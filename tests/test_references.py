"""Object reference generation, verification and resolution."""

import numpy as np

from spatialqa.geometry import IDENTITY_GRAVITY, gravity_frame
from spatialqa.references import (
    FALLBACK_PALETTE,
    ObjectReference,
    assign_references,
    fallback_color,
    fallback_reference,
    linear_order_reference,
    ordinal_word,
    positional_reference,
    resolve_reference,
    select_reference,
    size_reference,
    verify_textual_reference,
)
from spatialqa.relations import SceneObject

GF = gravity_frame(IDENTITY_GRAVITY)


def _obj(oid, center, size=(1.0, 1.0, 1.0), category="chair"):
    return SceneObject(object_id=oid, category=category,
                       center=np.asarray(center, dtype=float),
                       size=np.asarray(size, dtype=float))


class TestVerifyTextual:
    def test_two_boxes_invalid(self):
        assert not verify_textual_reference([[0, 0, 1, 1], [2, 2, 3, 3]], 0.95)

    def test_single_box_high_iou_valid(self):
        assert verify_textual_reference([[0, 0, 1, 1]], 0.85)

    def test_exactly_07_invalid(self):
        assert not verify_textual_reference([[0, 0, 1, 1]], 0.70)

    def test_zero_boxes_invalid(self):
        assert not verify_textual_reference([], 1.0)


class TestFallback:
    def test_index_0_is_red(self):
        ref = fallback_reference("o1", "chair", 0)
        assert ref.text == "the chair (highlighted by red box)"

    def test_palette_unique_within_first_cycle(self):
        colors = [fallback_color(i) for i in range(len(FALLBACK_PALETTE))]
        assert len(set(colors)) == len(FALLBACK_PALETTE)

    def test_wrap_adds_ordinal(self):
        assert fallback_color(8) == "second red"
        assert fallback_color(9) == "second green"
        assert fallback_color(17) == "third green"


class TestLinearOrder:
    def test_exactly_collinear(self):
        objs = [_obj(f"c{i}", (i * 1.0, 0.2, 3.0)) for i in range(4)]
        refs = linear_order_reference(objs, GF)
        assert refs is not None
        texts = {r.object_id: r.text for r in refs}
        assert texts["c0"] == "the first chair from the left"
        assert texts["c3"] == "the fourth chair from the left"

    def test_square_not_linear(self):
        objs = [_obj("a", (0, 0, 3)), _obj("b", (1, 0, 3)),
                _obj("c", (0, 0, 4)), _obj("d", (1, 0, 4))]
        assert linear_order_reference(objs, GF) is None

    def test_jittered_line_keeps_order(self):
        rng = np.random.default_rng(0)
        length = 6.0
        xs = np.linspace(0, length, 5)
        objs = []
        for i, x in enumerate(xs):
            jitter = rng.uniform(-0.05, 0.05, size=2) * length * 0.5
            objs.append(_obj(f"c{i}", (x, 0.5 + jitter[0], 4.0 + jitter[1])))
        shuffled = [objs[i] for i in rng.permutation(5)]
        refs = linear_order_reference(shuffled, GF)
        assert refs is not None
        rank = {r.object_id: r.params["rank"] for r in refs}
        assert [rank[f"c{i}"] for i in range(5)] == [0, 1, 2, 3, 4]

    def test_depth_axis_ordering(self):
        objs = [_obj(f"c{i}", (0.3, 0.2, 2.0 + i)) for i in range(3)]
        refs = linear_order_reference(objs, GF)
        assert refs is not None
        assert all("from the front" in r.text for r in refs)
        rank = {r.object_id: r.params["rank"] for r in refs}
        assert rank["c0"] == 0  # nearest is first from the front

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        base = [(float(i), rng.uniform(-0.02, 0.02), 3.0) for i in range(4)]
        objs1 = [_obj(f"c{i}", c) for i, c in enumerate(base)]
        objs2 = [_obj(f"c{i}", tuple(10 * v for v in c))
                 for i, c in enumerate(base)]
        r1 = linear_order_reference(objs1, GF)
        r2 = linear_order_reference(objs2, GF)
        assert (r1 is None) == (r2 is None)
        if r1:
            assert [r.object_id for r in r1] == [r.object_id for r in r2]

    def test_under_three_objects_none(self):
        assert linear_order_reference([_obj("a", (0, 0, 3))], GF) is None

    def test_ambiguous_diagonal_suppressed(self):
        # 45 degrees between x and z axes
        objs = [_obj(f"c{i}", (i * 1.0, 0.0, 3.0 + i * 1.0)) for i in range(4)]
        assert linear_order_reference(objs, GF) is None


class TestPositional:
    def test_two_sofas_closer_farther(self):
        objs = [_obj("s1", (0, 0, 2), category="sofa"),
                _obj("s2", (0, 0, 4), category="sofa")]
        table = positional_reference(objs, GF)
        texts = {r.text for refs in table.values() for r in refs}
        assert "the closer sofa" in texts
        assert "the farther sofa" in texts

    def test_close_depths_suppressed(self):
        objs = [_obj("s1", (0, 0, 2.0), category="sofa"),
                _obj("s2", (0, 0, 2.1), category="sofa")]
        table = positional_reference(objs, GF)
        assert all(
            r.params["metric"] != "camera-distance"
            for refs in table.values() for r in refs
        )

    def test_three_ranks_camera_distance(self):
        objs = [_obj("a", (0, 0, 2), category="table"),
                _obj("b", (0, 0, 3), category="table"),
                _obj("c", (0, 0, 5), category="table")]
        table = positional_reference(objs, GF)
        texts = {r.text for refs in table.values() for r in refs}
        assert "the closest table to the camera" in texts
        assert "the second closest table to the camera" in texts
        assert "the farthest table from the camera" in texts

    def test_every_emitted_reference_resolves_uniquely(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            objs = [
                _obj(f"o{i}", rng.uniform(-3, 3, 3) + [0, 0, 6], category="box")
                for i in range(n)
            ]
            table = positional_reference(objs, GF)
            for oid, refs in table.items():
                for ref in refs:
                    resolved = resolve_reference(ref, objs, GF)
                    assert resolved is not None and resolved.object_id == oid


class TestSizeReference:
    def test_taller_of_two(self):
        objs = [_obj("a", (0, 0, 3), size=(1, 0.5, 1), category="door"),
                _obj("b", (2, 0, 3), size=(1, 1.2, 1), category="door")]
        table = size_reference(objs, "height")
        texts = {r.object_id: r.text for refs in table.values() for r in refs}
        assert texts["b"] == "the tallest door"
        assert texts["a"] == "the shortest door"

    def test_close_sizes_suppressed(self):
        objs = [_obj("a", (0, 0, 3), size=(1.0, 1.0, 1), category="door"),
                _obj("b", (2, 0, 3), size=(1.0, 1.05, 1), category="door")]
        assert all(not refs for refs in size_reference(objs, "height").values())

    def test_resolution(self):
        objs = [_obj("a", (0, 0, 3), size=(0.5, 1, 1), category="sofa"),
                _obj("b", (2, 0, 3), size=(1.0, 1, 1), category="sofa"),
                _obj("c", (4, 0, 3), size=(2.0, 1, 1), category="sofa")]
        table = size_reference(objs, "width")
        for oid, refs in table.items():
            for ref in refs:
                resolved = resolve_reference(ref, objs, GF)
                assert resolved is not None and resolved.object_id == oid

    def test_second_widest_wording(self):
        objs = [_obj("a", (0, 0, 3), size=(0.5, 1, 1), category="sofa"),
                _obj("b", (2, 0, 3), size=(1.0, 1, 1), category="sofa"),
                _obj("c", (4, 0, 3), size=(2.0, 1, 1), category="sofa")]
        table = size_reference(objs, "width")
        assert table["b"][0].text == "the second widest sofa"


class TestSelectAndAssign:
    def test_priority_textual_first(self):
        cands = [
            ObjectReference("o", "positional", "the leftmost chair"),
            ObjectReference("o", "textual", "the red office chair"),
        ]
        assert select_reference(cands).kind == "textual"

    def test_category_unique_beats_positional(self):
        cands = [
            ObjectReference("o", "positional", "the leftmost chair"),
            ObjectReference("o", "category", "the chair"),
        ]
        assert select_reference(cands).kind == "category"

    def test_assign_single_instance_gets_category(self):
        objs = [_obj("a", (0, 0, 3), category="sofa"),
                _obj("b", (1, 0, 3), category="table")]
        refs = assign_references(objs, GF)
        assert refs["a"].text == "the sofa"
        assert refs["b"].text == "the table"

    def test_assign_verified_caption_wins(self):
        objs = [_obj("a", (0, 0, 3), category="sofa")]
        refs = assign_references(objs, GF,
                                 verified_captions={"a": "the red velvet sofa"})
        assert refs["a"].kind == "textual"

    def test_fallback_when_nothing_passes(self):
        # two identical, coincident objects: every rank guard fails
        objs = [_obj("a", (0, 0, 3), category="sofa"),
                _obj("b", (0.001, 0, 3), category="sofa")]
        refs = assign_references(objs, GF)
        kinds = {refs["a"].kind, refs["b"].kind}
        assert kinds == {"box-fallback"}
        assert refs["a"].text != refs["b"].text

    def test_assigned_references_unique_texts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            objs = []
            for i in range(int(rng.integers(2, 7))):
                cat = rng.choice(["chair", "table", "lamp"])
                objs.append(_obj(f"o{i}", rng.uniform(-3, 3, 3) + [0, 0, 6],
                                 size=rng.uniform(0.3, 2.0, 3), category=str(cat)))
            refs = assign_references(objs, GF)
            texts = [r.text for r in refs.values()]
            assert len(set(texts)) == len(texts)


class TestOrdinals:
    def test_words(self):
        assert ordinal_word(1) == "first"
        assert ordinal_word(3) == "third"
        assert ordinal_word(10) == "tenth"
        assert ordinal_word(11) == "11th"
