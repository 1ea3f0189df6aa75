"""Scene QA synthesis: determinism, format invariants, family coverage."""

import json
import re

import numpy as np
import pytest

from spatialqa.geometry import IDENTITY_GRAVITY, gravity_frame
from spatialqa.manifest import ManifestError
from spatialqa.qa.items import (
    FAMILIES,
    QAItem,
    canonical_json,
    derive_seed,
)
from spatialqa.oracle.scene import CATEGORY_POOL
from spatialqa.qa.synth import Scene, synthesize_scene_qa
from spatialqa.qa.templates import plural
from spatialqa.references import assign_references
from spatialqa.relations import SceneObject


def _obj(oid, center, size=(1.0, 1.0, 1.0), yaw=None, category="chair"):
    return SceneObject(object_id=oid, category=category,
                       center=np.asarray(center, dtype=float),
                       size=np.asarray(size, dtype=float), yaw_deg=yaw)


def _scene(objects, image_id="img-0"):
    gf = gravity_frame(IDENTITY_GRAVITY)
    refs = assign_references(objects, gf)
    return Scene(image_id=image_id, objects=objects, refs=refs, gf=gf)


@pytest.fixture
def rich_scene():
    objects = [
        _obj("a", (-1.5, 0.3, 3.0), size=(0.8, 0.9, 0.7), yaw=0.0,
             category="chair"),
        _obj("b", (1.2, 0.4, 3.5), size=(1.2, 0.7, 0.9), yaw=92.0,
             category="chair"),
        _obj("c", (0.1, 0.6, 5.0), size=(1.8, 0.8, 1.1), yaw=181.0,
             category="table"),
    ]
    return _scene(objects)


class TestDeterminism:
    def test_same_seed_identical_output(self, rich_scene):
        a = synthesize_scene_qa(rich_scene, seed=7)
        b = synthesize_scene_qa(rich_scene, seed=7)
        assert [i.to_json() for i in a] == [i.to_json() for i in b]

    def test_different_seed_differs(self, rich_scene):
        a = synthesize_scene_qa(rich_scene, seed=7)
        b = synthesize_scene_qa(rich_scene, seed=8)
        assert [i.to_json() for i in a] != [i.to_json() for i in b]

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, "img-1") == derive_seed(0, "img-1")
        assert derive_seed(0, "img-1") != derive_seed(0, "img-2")
        assert derive_seed(0, "img-1") != derive_seed(1, "img-1")


class TestFormatInvariants:
    def test_every_item_well_formed(self, rich_scene):
        items = synthesize_scene_qa(rich_scene, seed=0)
        assert items
        for item in items:
            if item.format == "mcq":
                assert len(item.options) == 4
                assert len(set(item.options)) == 4
                assert item.answer_text in "ABCD"
            elif item.format == "true-false":
                assert item.answer_text in ("True", "False")
                assert "stated" in item.provenance
                assert item.prompt.endswith("True or False?")
            assert item.family in FAMILIES
            assert item.image_id == "img-0"

    def test_roundtrip_json(self, rich_scene):
        items = synthesize_scene_qa(rich_scene, seed=0)
        for item in items:
            line = item.to_json()
            assert json.loads(line) == item.to_dict()
            assert canonical_json(json.loads(line)) == line

    def test_prompts_use_reference_texts(self, rich_scene):
        items = synthesize_scene_qa(rich_scene, seed=1)
        table_items = [i for i in items
                       if i.provenance.get("object") == "c"
                       or "c" in i.provenance.get("objects", [])]
        assert any("the table" in i.prompt for i in table_items)


class TestArity:
    def test_single_object_scene_has_no_pairwise_tasks(self):
        scene = _scene([_obj("solo", (0, 0.3, 3.0), yaw=0.0)])
        items = synthesize_scene_qa(scene, seed=0)
        assert items
        levels = {FAMILIES[i.family] for i in items}
        assert levels <= {0, 1}
        # point map absent -> no level 0 either
        assert {i.family for i in items} <= {
            "object_localization", "object_size", "object_orientation"}

    def test_empty_scene_empty_stream(self):
        scene = _scene([])
        assert synthesize_scene_qa(scene, seed=0) == []

    def test_objectless_scene_with_pointmap_still_empty(self):
        from spatialqa.pmap import make_pointmap
        pts = np.zeros((8, 8, 3), dtype=np.float32)
        pts[:, :, 2] = 4.0
        scene = _scene([])
        scene.pm = make_pointmap(pts, np.ones((8, 8), dtype=bool))
        assert synthesize_scene_qa(scene, seed=0) == []

    def test_suppressed_relations_never_emit(self):
        # two objects at the same depth/height: several guards fail
        objects = [
            _obj("a", (-0.01, 0.3, 3.0), category="sofa"),
            _obj("b", (0.01, 0.3, 3.0), category="sofa"),
        ]
        items = synthesize_scene_qa(_scene(objects), seed=0)
        for item in items:
            if item.family == "relative_direction" and \
                    "axis" in item.provenance:
                # only the x axis clears the guard here
                assert item.provenance["axis"] == "x"
            assert item.family != "relational_comparison" or \
                item.provenance.get("attribute") == "orientation"


class TestPayloads:
    def test_quantity_answers_formatted(self, rich_scene):
        items = synthesize_scene_qa(rich_scene, seed=3)
        for item in items:
            if item.format == "free-form" and item.payload["kind"] == "quantity":
                assert "meters" in item.answer_text or \
                    "centimeters" in item.answer_text

    def test_counts_are_ints(self, rich_scene):
        items = synthesize_scene_qa(rich_scene, seed=3)
        for item in items:
            if item.payload["kind"] == "count":
                assert isinstance(item.payload["value"], int)

    def test_bad_payload_kind_rejected(self):
        item = QAItem(item_id="img:object_size:0001", image_id="img",
                      family="object_size", format="free-form", prompt="?",
                      answer_text="1",
                      payload={"kind": "tensor", "value": 1.0})
        with pytest.raises(ManifestError, match="payload.kind 'tensor'"):
            item.to_json()


class TestComparatives:
    """An extreme-mode comparison over two objects asks "which one is
    taller?", over three or more "which one is the tallest?"."""

    SUPERLATIVE = re.compile(r"\b(closest|farthest|narrowest|widest|"
                             r"shortest|tallest|smallest|largest)\b")
    COMPARATIVE = re.compile(r"\b(closer|farther|narrower|wider|shorter|"
                             r"taller|smaller|larger)\b")

    @staticmethod
    def _phrases(scene) -> list[str]:
        """The extreme-mode comparison prompts of 30 seeds, with the
        reference texts (which may be superlatives) cut out."""
        phrases = []
        for seed in range(30):
            for item in synthesize_scene_qa(scene, seed=seed):
                if item.provenance.get("mode") in ("extreme-min",
                                                   "extreme-max"):
                    prompt = item.prompt
                    for text in item.provenance["texts"].values():
                        prompt = prompt.replace(text, "")
                    phrases.append(prompt)
        return phrases

    def test_two_objects_take_the_comparative(self):
        scene = _scene([
            _obj("a", (-1.5, 0.3, 3.0), size=(0.5, 0.4, 0.5)),
            _obj("b", (1.5, 0.1, 5.0), size=(1.0, 0.9, 1.2),
                 category="table"),
        ])
        phrases = self._phrases(scene)
        assert phrases
        for phrase in phrases:
            assert self.COMPARATIVE.search(phrase), phrase
            assert not self.SUPERLATIVE.search(phrase), phrase

    def test_three_objects_take_the_superlative(self, rich_scene):
        phrases = self._phrases(rich_scene)
        assert phrases
        for phrase in phrases:
            assert self.SUPERLATIVE.search(phrase), phrase
            assert not self.COMPARATIVE.search(phrase), phrase


class TestTrueFalseBalance:
    def test_long_run_true_fraction_near_half(self):
        # the True/False coin is unbiased by construction; aggregate over
        # many seeds to bound the realized fraction (4 sigma at this n)
        objects = [
            _obj("a", (-1.5, 0.3, 3.0), yaw=0.0, category="chair"),
            _obj("b", (1.2, 0.4, 3.5), yaw=90.0, category="table"),
        ]
        scene = _scene(objects)
        true_n, total = 0, 0
        for seed in range(1200):
            for item in synthesize_scene_qa(scene, seed=seed):
                if item.format == "true-false":
                    total += 1
                    true_n += item.answer_text == "True"
        assert total > 6000
        assert abs(true_n / total - 0.5) < 0.02


class TestSamplingConfig:
    """Corpus line serialization."""

    def test_canonical_json_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == \
            '{"a":[1.5,"x"],"b":1}'


class TestPlural:
    def test_every_oracle_category(self):
        expected = {
            "chair": "chairs", "table": "tables", "sofa": "sofas",
            "lamp": "lamps", "bed": "beds", "desk": "desks",
            "shelf": "shelves", "cabinet": "cabinets",
            "television": "televisions", "plant": "plants",
            "pillow": "pillows", "rug": "rugs", "mirror": "mirrors",
            "stool": "stools", "bench": "benches", "dresser": "dressers",
            "ottoman": "ottomans", "bookcase": "bookcases",
            "nightstand": "nightstands", "armchair": "armchairs",
        }
        assert {c: plural(c) for c in CATEGORY_POOL} == expected

    def test_rules(self):
        assert [plural(n) for n in ("box", "glass", "dish", "library",
                                    "tray", "half", "y")] == [
            "boxes", "glasses", "dishes", "libraries", "trays", "halves",
            "ys"]
