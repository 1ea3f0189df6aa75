"""Object reference texts: verification, the rules of each kind, and
the texts of seeded random scenes pinned by their hash."""

import hashlib
import json

import numpy as np

from spatialqa.geometry import IDENTITY_GRAVITY, gravity_frame
from spatialqa.qa.problem import scene_digest
from spatialqa.qa.synth import Scene
from spatialqa.references import (
    FALLBACK_PALETTE,
    RANKINGS,
    assign_references,
    fallback_color,
    fallback_reference,
    linear_order_reference,
    ordinal_word,
    rank_reference,
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
        assert fallback_reference("chair", 0) == \
            "the chair (highlighted by red box)"

    def test_palette_unique_within_first_cycle(self):
        colors = [fallback_color(i) for i in range(len(FALLBACK_PALETTE))]
        assert len(set(colors)) == len(FALLBACK_PALETTE)

    def test_wrap_adds_ordinal(self):
        assert fallback_color(8) == "second red"
        assert fallback_color(9) == "second green"
        assert fallback_color(17) == "third green"
        assert fallback_color(160) == "21st red"


class TestLinearOrder:
    def test_exactly_collinear(self):
        objs = [_obj(f"c{i}", (i * 1.0, 0.2, 3.0)) for i in range(4)]
        texts = linear_order_reference(objs, GF)
        assert texts is not None
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
        texts = linear_order_reference(shuffled, GF)
        assert texts is not None
        assert [texts[f"c{i}"] for i in range(5)] == [
            f"the {ordinal_word(i + 1)} chair from the left" for i in range(5)]

    def test_depth_axis_ordering(self):
        objs = [_obj(f"c{i}", (0.3, 0.2, 2.0 + i)) for i in range(3)]
        texts = linear_order_reference(objs, GF)
        assert texts is not None
        # nearest is first from the front
        assert texts == {"c0": "the first chair from the front",
                         "c1": "the second chair from the front",
                         "c2": "the third chair from the front"}

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        base = [(float(i), rng.uniform(-0.02, 0.02), 3.0) for i in range(4)]
        objs1 = [_obj(f"c{i}", c) for i, c in enumerate(base)]
        objs2 = [_obj(f"c{i}", tuple(10 * v for v in c))
                 for i, c in enumerate(base)]
        assert linear_order_reference(objs1, GF) == \
            linear_order_reference(objs2, GF)

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
        assert rank_reference(objs, "camera-distance", GF) == {
            "s1": "the closer sofa", "s2": "the farther sofa"}

    def test_close_depths_suppressed(self):
        objs = [_obj("s1", (0, 0, 2.0), category="sofa"),
                _obj("s2", (0, 0, 2.1), category="sofa")]
        assert rank_reference(objs, "camera-distance", GF) is None

    def test_three_ranks_camera_distance(self):
        objs = [_obj("a", (0, 0, 2), category="table"),
                _obj("b", (0, 0, 3), category="table"),
                _obj("c", (0, 0, 5), category="table")]
        assert rank_reference(objs, "camera-distance", GF) == {
            "a": "the closest table to the camera",
            "b": "the second closest table to the camera",
            "c": "the farthest table from the camera"}

    def test_every_ranking_names_each_member_apart(self):
        rng = np.random.default_rng(2)
        passed = 0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            objs = [_obj(f"o{i}", rng.uniform(-3, 3, 3) + [0, 0, 6],
                         size=rng.uniform(0.3, 2.0, 3), category="box")
                    for i in range(n)]
            for metric in RANKINGS:
                texts = rank_reference(objs, metric, GF)
                if texts is not None:
                    passed += 1
                    assert sorted(texts) == sorted(o.object_id for o in objs)
                    assert len(set(texts.values())) == n
        assert passed

    def test_x_beats_camera_distance(self):
        objs = [_obj("a", (-1, 0, 3)), _obj("b", (1, 0, 3.5))]
        assert rank_reference(objs, "camera-distance", GF) is not None
        assert assign_references(objs, GF) == {
            "a": "the leftmost chair", "b": "the rightmost chair"}


class TestSizeReference:
    def test_taller_of_two(self):
        objs = [_obj("a", (0, 0, 3), size=(1, 0.5, 1), category="door"),
                _obj("b", (2, 0, 3), size=(1, 1.2, 1), category="door")]
        assert rank_reference(objs, "height", GF) == {
            "a": "the shortest door", "b": "the tallest door"}

    def test_close_sizes_suppressed(self):
        objs = [_obj("a", (0, 0, 3), size=(1.0, 1.0, 1), category="door"),
                _obj("b", (2, 0, 3), size=(1.0, 1.05, 1), category="door")]
        assert rank_reference(objs, "height", GF) is None

    def test_size_when_every_position_fails(self):
        objs = [_obj("a", (0, 0, 3), size=(0.5, 1, 1), category="sofa"),
                _obj("b", (0.01, 0, 3), size=(1.0, 1, 1), category="sofa"),
                _obj("c", (0, 0.01, 3), size=(2.0, 1, 1), category="sofa")]
        for metric in ("x", "y", "z", "camera-distance"):
            assert rank_reference(objs, metric, GF) is None
        assert assign_references(objs, GF) == {
            "a": "the narrowest sofa", "b": "the second widest sofa",
            "c": "the widest sofa"}

    def test_second_widest_wording(self):
        objs = [_obj("a", (0, 0, 3), size=(0.5, 1, 1), category="sofa"),
                _obj("b", (2, 0, 3), size=(1.0, 1, 1), category="sofa"),
                _obj("c", (4, 0, 3), size=(2.0, 1, 1), category="sofa")]
        assert rank_reference(objs, "width", GF)["b"] == \
            "the second widest sofa"


class TestSelectAndAssign:
    def test_caption_overrides_one_object(self):
        objs = [_obj("a", (-1, 0, 3)), _obj("b", (1, 0, 3))]
        refs = assign_references(objs, GF, verified_captions={
            "a": "the red office chair", "ghost": "not in the scene"})
        assert refs == {"a": "the red office chair",
                        "b": "the rightmost chair"}

    def test_blank_or_shared_caption_not_used(self):
        objs = [_obj("a", (-1, 0, 3)), _obj("b", (1, 0, 3)),
                _obj("s", (0, 0, 3), category="sofa"),
                _obj("t", (0, 1, 3), category="table")]
        refs = assign_references(objs, GF, verified_captions={
            "a": "the chair", "b": "the chair", "s": " ", "t": "the sofa"})
        assert refs == {"a": "the leftmost chair", "b": "the rightmost chair",
                        "s": "the sofa", "t": "the table"}

    def test_category_unique_beats_positional(self):
        objs = [_obj("c1", (-1, 0, 3)), _obj("s", (0, 0, 3), category="sofa"),
                _obj("c2", (1, 0, 3))]
        assert assign_references(objs, GF) == {
            "c1": "the leftmost chair", "s": "the sofa",
            "c2": "the rightmost chair"}

    def test_linear_order_beats_positional(self):
        objs = [_obj(f"c{i}", (i * 1.0, 0.2, 3.0)) for i in range(3)]
        assert rank_reference(objs, "x", GF) is not None
        assert assign_references(objs, GF) == {
            "c0": "the first chair from the left",
            "c1": "the second chair from the left",
            "c2": "the third chair from the left"}

    def test_assign_single_instance_gets_category(self):
        objs = [_obj("a", (0, 0, 3), category="sofa"),
                _obj("b", (1, 0, 3), category="table")]
        refs = assign_references(objs, GF)
        assert refs["a"] == "the sofa"
        assert refs["b"] == "the table"

    def test_assign_verified_caption_wins(self):
        objs = [_obj("a", (0, 0, 3), category="sofa")]
        refs = assign_references(objs, GF,
                                 verified_captions={"a": "the red velvet sofa"})
        assert refs["a"] == "the red velvet sofa"

    def test_fallback_when_nothing_passes(self):
        # two identical, coincident objects: every rank guard fails
        objs = [_obj("a", (0, 0, 3), category="sofa"),
                _obj("b", (0.001, 0, 3), category="sofa")]
        assert assign_references(objs, GF) == {
            "a": "the sofa (highlighted by red box)",
            "b": "the sofa (highlighted by green box)"}

    def test_fallback_palette_counts_across_groups(self):
        objs = [_obj("s1", (0, 0, 3), category="sofa"),
                _obj("c1", (2, 0, 3)),
                _obj("s2", (0.001, 0, 3), category="sofa"),
                _obj("c2", (2.001, 0, 3)),
                _obj("c3", (2, 0.001, 3))]
        refs = assign_references(objs, GF,
                                 verified_captions={"c2": "the old chair"})
        assert refs == {"s1": "the sofa (highlighted by red box)",
                        "c1": "the chair (highlighted by green box)",
                        "s2": "the sofa (highlighted by blue box)",
                        "c2": "the old chair",
                        "c3": "the chair (highlighted by yellow box)"}

    def test_assigned_references_unique_texts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            objs = []
            for i in range(int(rng.integers(2, 7))):
                cat = rng.choice(["chair", "table", "lamp"])
                objs.append(_obj(f"o{i}", rng.uniform(-3, 3, 3) + [0, 0, 6],
                                 size=rng.uniform(0.3, 2.0, 3), category=str(cat)))
            texts = list(assign_references(objs, GF).values())
            assert len(set(texts)) == len(texts)


class TestOrdinals:
    def test_words(self):
        assert ordinal_word(1) == "first"
        assert ordinal_word(3) == "third"
        assert ordinal_word(10) == "tenth"
        assert ordinal_word(11) == "11th"

    def test_suffixes(self):
        assert [ordinal_word(n) for n in (11, 12, 13, 21, 22, 23, 101, 111)] \
            == ["11th", "12th", "13th", "21st", "22nd", "23rd", "101st",
                "111th"]


# ---------------------------------------------------------------------------
# Pinned texts over seeded random scenes
# ---------------------------------------------------------------------------

_CATEGORIES = ("chair", "table", "lamp", "sofa", "shelf")
_LAYOUTS = ("collinear", "ray", "clustered", "stacked", "spread")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _group_centers(rng, layout, n):
    """Camera-frame centers of one same-category group."""
    base = rng.uniform((-2.0, -1.0, 2.5), (2.0, 1.0, 6.0))
    if layout == "collinear":  # jittered line: linear order, or its guard
        axis = np.eye(3)[rng.integers(3)] if rng.random() < 0.7 else \
            _unit(rng.normal(size=3))
        steps = np.arange(n) * rng.uniform(0.3, 1.5)
        return base + np.outer(steps, axis) + rng.normal(0, 0.03, (n, 3))
    if layout == "ray":  # along a camera ray: camera distance beats z
        ray = _unit(base + rng.normal(0, 0.01, 3))
        dists = 2.5 * np.cumprod(rng.uniform(1.08, 1.14, n))
        return np.outer(dists, ray)
    if layout in ("clustered", "stacked"):  # every position guard fails
        return base + rng.uniform(-0.01, 0.01, (n, 3))
    return base + rng.uniform(-2.0, 2.0, (n, 3))


# upright, and three tilts of gravity towards the camera's x and z
_FRAMES = [GF] + [gravity_frame(_unit((a, 1.0, b)))
                  for a, b in ((0.2, 0.0), (-0.1, 0.25), (0.3, -0.2))]


def _random_scene(rng):
    """Objects, gravity frame and verified captions of one scene."""
    gf = _FRAMES[rng.integers(len(_FRAMES))]
    objs = []
    n_groups = int(rng.integers(1, 3))
    for category in rng.choice(_CATEGORIES, n_groups, replace=False):
        layout = _LAYOUTS[rng.integers(len(_LAYOUTS))]
        n = int(rng.integers(1, 6))
        centers = _group_centers(rng, layout, n)
        if layout == "clustered":  # equal sizes: every size guard fails too
            sizes = np.tile(rng.uniform(0.3, 1.5, 3), (n, 1)) \
                * rng.uniform(0.99, 1.01, (n, 3))
        else:
            sizes = rng.uniform(0.2, 2.0, (n, 3))
        for c, s in zip(centers, sizes):
            objs.append(_obj(f"o{len(objs)}", c, size=s, category=str(category)))
    captions = {o.object_id: f"the caption of {o.object_id}"
                for o in objs if rng.random() < 0.15}
    captions["ghost"] = "an object that is not in the scene"
    return objs, gf, captions


class TestPinnedTexts:
    """The text of every object of 2,000 seeded random scenes, as the
    problem generator's digest reads it, pinned by its sha256."""

    SHA256 = "961c267bb05094d5b6299f066c5c94a0bab3e053e0e96fa15811e0def325e8d5"

    def test_texts_are_pinned(self):
        rng = np.random.default_rng(2024)
        scenes = []
        for i in range(2000):
            objs, gf, captions = _random_scene(rng)
            refs = assign_references(objs, gf, verified_captions=captions)
            digest = scene_digest(Scene(image_id=f"s{i}", objects=objs,
                                        refs=refs, gf=gf))
            scenes.append([[o["id"], o["reference"]]
                           for o in digest["objects"]])
        texts = [t for scene in scenes for _, t in scene]
        # every path of the rule shows up in the corpus
        for marker in ("caption", "the first ", "leftmost", "highest",
                       "frontmost", "closer", "closest", "widest",
                       "tallest", "largest", "highlighted by red",
                       "highlighted by second"):
            assert any(marker in t for t in texts), marker
        blob = json.dumps(scenes, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.SHA256
