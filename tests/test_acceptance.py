"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Tolerances
are pinned here and nowhere else:

  1  end-to-end oracle equivalence, >=1000 scenes, sigma 0, 100% of items
     (labels/counts exact, quantities within print rounding), < 5 min
  2  noise robustness: sigma 0.01, >=99% of quantitative answers within
     0.75-1.25x of oracle values
  3  scoring-rule boundary table (>=30 cases, boundaries inclusive)
  4  Hungarian optimality vs exhaustive search (500 matrices, n<=7) and
     the IoU < 0.4 drop rule
  5  DBSCAN equivalence with the brute-force reference (100 point sets)
  6  PCA linearity rule: collinear pass, squares fail, 5% jitter ordered
  7  (no test: the paper's training mix has no program to check)
  8  encoding checks: 193 channels, 448->32 grid, zero-init fusion and
     patchify vs naive reference within 1e-6
  9  determinism and hermeticity: 1 vs 8 workers byte-identical, zero
     network in fixture mode, kill/resume reproduces the corpus
 10  format round trips: 100 PMAP files, 1000 quantities
"""

import itertools
import json
import math
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from spatialqa.assignment import hungarian_label_transfer, solve_assignment
from spatialqa.clients import build_clients
from spatialqa.config import PipelineConfig
from spatialqa.dbscan import dbscan_labels
from spatialqa.encoding import (
    ENCODED_CHANNELS,
    PATCH,
    fuse,
    patchify,
    sinusoidal_encode,
)
from spatialqa.evalharness import (
    score_direction,
    score_mcq,
    score_ratio,
    score_tf,
)
from spatialqa.geometry import IDENTITY_GRAVITY, gravity_frame
from spatialqa.manifest import read_manifest
from spatialqa.oracle.answers import answers_match, oracle_answer
from spatialqa.oracle.gen import generate_dataset
from spatialqa.oracle.scene import ESTIMATION_SAMPLER, read_scenes
from spatialqa.pipeline import process_image, read_corpus, run_generate
from spatialqa.pmap import make_pointmap, read_pointmap, write_pointmap
from spatialqa.quantity import (
    PRINT_RESOLUTION_M,
    format_quantity,
    parse_quantity,
)
from spatialqa.references import linear_order_reference, ordinal_word
from spatialqa.relations import SceneObject

from test_dbscan import brute_force_dbscan, same_clustering
from test_encoding import patchify_reference


def _report(n: int, passed: bool, detail: str) -> None:
    print(f"\nCRITERION {n}: {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. End-to-end oracle equivalence (sigma = 0, >= 1000 scenes, all families)
# ---------------------------------------------------------------------------

class TestCriterion1OracleEquivalence:
    N_SCENES = 1000
    TIME_BUDGET_S = 300.0

    def test_end_to_end_equivalence(self, tmp_path):
        start = time.monotonic()
        result = generate_dataset(range(self.N_SCENES), tmp_path,
                                  sigma=0.0, gt_boxes=True,
                                  problem_fixtures=True)
        config = PipelineConfig(clients={"problem-generator": {
            "fixture_dir": str(result.fixture_dir)}})
        clients = build_clients(config.clients)
        entries = read_manifest(result.manifest_path)
        truths = {s.scene_id: s for s in read_scenes(result.scenes_path)}

        total, mismatches = 0, []
        families = set()
        for entry in entries:
            items = process_image(entry, result.manifest_path, config,
                                  clients)
            truth = truths[entry.image_id]
            for item in items:
                d = item.to_dict()
                ok, why = answers_match(truth, d)
                total += 1
                families.add(item.family)
                if not ok:
                    mismatches.append((item.item_id, why))
        elapsed = time.monotonic() - start

        passed = (not mismatches and total > 10_000
                  and len(families) == 11 and elapsed < self.TIME_BUDGET_S)
        _report(1, passed,
                f"{total - len(mismatches)}/{total} items match the oracle "
                f"across {len(families)}/11 families in {elapsed:.0f}s "
                f"({self.N_SCENES} scenes, sigma=0)")
        for item_id, why in mismatches[:10]:
            print(f"  mismatch {item_id}: {why}")
        assert not mismatches
        assert len(families) == 11
        assert elapsed < self.TIME_BUDGET_S


# ---------------------------------------------------------------------------
# 2. Noise robustness (sigma = 0.01, >= 99% within the tight band)
# ---------------------------------------------------------------------------

class TestCriterion2NoiseRobustness:
    N_SCENES = 150

    def test_estimation_under_noise(self, tmp_path):
        result = generate_dataset(range(self.N_SCENES), tmp_path,
                                  sigma=0.01, gt_boxes=False,
                                  sampler=ESTIMATION_SAMPLER)
        config = PipelineConfig(workers=4, seed=0)
        run_generate(result.manifest_path, config, tmp_path / "run")
        items = read_corpus(tmp_path / "run" / "corpus.jsonl")
        truths = {s.scene_id: s for s in read_scenes(result.scenes_path)}

        n_quant, in_band = 0, 0
        for item in items:
            kind = item["payload"]["kind"]
            if kind not in ("quantity", "vector3"):
                continue
            oracle = oracle_answer(truths[item["image_id"]], item)
            if kind == "quantity":
                ratio = float(item["payload"]["value"]) / float(oracle["value"])
            else:
                ratio = float(
                    np.linalg.norm(item["payload"]["value"])
                    / np.linalg.norm(oracle["value"]))
            n_quant += 1
            in_band += 0.75 <= ratio <= 1.25

        fraction = in_band / n_quant if n_quant else 0.0
        passed = fraction >= 0.99 and n_quant >= 1000
        _report(2, passed,
                f"{in_band}/{n_quant} quantitative answers within "
                f"0.75-1.25x of oracle values ({fraction:.2%}) at "
                f"sigma=0.01")
        assert n_quant >= 1000
        assert fraction >= 0.99


# ---------------------------------------------------------------------------
# 3. Scoring-rule exactness (boundary table, >= 30 cases)
# ---------------------------------------------------------------------------

def _vec_at(deg: float):
    return [math.cos(math.radians(deg)), math.sin(math.radians(deg)), 0.0]


class TestCriterion3ScoringBoundaries:
    RATIO_CASES = [
        # (pred, gt, band, expected)
        (3.0, 4.0, "tight", True),     # ratio exactly 0.75
        (5.0, 4.0, "tight", True),     # ratio exactly 1.25
        (4.0, 4.0, "tight", True),
        (2.999, 4.0, "tight", False),
        (5.004, 4.0, "tight", False),
        (3.0, 3.0, "tight", True),
        (1.0, 4.0, "tight", False),
        (2.0, 4.0, "wide", True),      # ratio exactly 0.5
        (8.0, 4.0, "wide", True),      # ratio exactly 2.0
        (7.9, 4.0, "wide", True),
        (8.004, 4.0, "wide", False),
        (1.996, 4.0, "wide", False),
        (3.0, 4.0, "wide", True),
    ]
    DIRECTION_CASES = [
        (0.0, True),
        (29.9, True),
        (30.0, True),                  # boundary inclusive
        (30.1, False),
        (90.0, False),
        (180.0, False),
        (-30.0, True),
    ]
    PROBLEM_CASES = [
        (2.4, 2.0, True),              # 20 percent
        (2.5, 2.0, True),              # exactly 25 percent
        (2.6, 2.0, False),             # 30 percent
        (1.5, 2.0, True),              # exactly -25 percent (ratio 0.75)
        (1.49, 2.0, False),
    ]
    MCQ_CASES = [
        ("B", "B", True),
        ("(b) the chair", "B", True),
        ("the answer is C", "B", False),
        ("", "B", False),
    ]
    TF_CASES = [
        ("True", "True", True),
        ("false", "False", True),
        ("False", "True", False),
        ("no idea", "True", False),
    ]

    def test_boundary_table(self):
        failures = []
        n_cases = 0
        for pred, gt, band, expected in self.RATIO_CASES:
            n_cases += 1
            got, _ = score_ratio(pred, gt, band)
            if got != expected:
                failures.append(f"ratio {pred}/{gt} {band}")
        for deg, expected in self.DIRECTION_CASES:
            n_cases += 1
            got, _ = score_direction(_vec_at(deg), [1, 0, 0])
            if got != expected:
                failures.append(f"direction {deg}deg")
        for pred, gt, expected in self.PROBLEM_CASES:
            n_cases += 1
            got, _ = score_ratio(pred, gt, band="tight")
            if got != expected:
                failures.append(f"problem {pred}/{gt}")
        for response, gt, expected in self.MCQ_CASES:
            n_cases += 1
            if score_mcq(response, gt) != expected:
                failures.append(f"mcq {response!r}")
        for response, gt, expected in self.TF_CASES:
            n_cases += 1
            if score_tf(response, gt) != expected:
                failures.append(f"tf {response!r}")

        passed = not failures and n_cases >= 30
        _report(3, passed,
                f"{n_cases - len(failures)}/{n_cases} boundary cases score "
                f"as specified (boundaries inclusive)")
        assert n_cases >= 30
        assert not failures, failures


# ---------------------------------------------------------------------------
# 4. Hungarian optimality + IoU drop rule
# ---------------------------------------------------------------------------

class TestCriterion4Hungarian:
    def test_optimality_and_drop_rule(self):
        rng = np.random.default_rng(2024)
        bad = 0
        for _ in range(500):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(n, 8))
            cost = rng.uniform(0, 1, size=(n, m))
            _, total = solve_assignment(cost)
            best = min(sum(cost[i, p] for i, p in enumerate(perm))
                       for perm in itertools.permutations(range(m), n))
            if abs(total - best) > 1e-9:
                bad += 1

        # constructed drop-rule cases: IoU 0.35 dropped, 0.4 and 0.9 kept
        _, labels_low = hungarian_label_transfer(
            [[0, 0, 10, 10]], ["chair"], [[0, 0, 5, 7]])      # IoU 0.35
        _, labels_edge = hungarian_label_transfer(
            [[0, 0, 10, 4]], ["sofa"], [[0, 0, 10, 10]])      # IoU 0.40
        _, labels_high = hungarian_label_transfer(
            [[0, 0, 10, 10]], ["lamp"], [[1, 0, 10, 10]])     # IoU 0.90
        drop_ok = (labels_low == [None] and labels_edge == ["sofa"]
                   and labels_high == ["lamp"])

        passed = bad == 0 and drop_ok
        _report(4, passed,
                f"500/500 random cost matrices (n<=7) match the exhaustive "
                f"minimum exactly; IoU<0.4 drop rule holds "
                f"(0.35 dropped, 0.40 kept)")
        assert bad == 0
        assert drop_ok


# ---------------------------------------------------------------------------
# 5. DBSCAN equivalence with the brute-force reference
# ---------------------------------------------------------------------------

class TestCriterion5Dbscan:
    def test_equivalence_on_100_point_sets(self):
        rng = np.random.default_rng(77)
        diverged = 0
        for trial in range(100):
            n = int(rng.integers(10, 501))
            if trial % 2:
                pts = rng.uniform(0, 5, size=(n, 3))
            else:
                k = int(rng.integers(1, 5))
                centers = rng.uniform(0, 10, size=(k, 3))
                pts = centers[rng.integers(0, k, size=n)] + \
                    rng.normal(0, 0.25, size=(n, 3))
            eps = float(rng.uniform(0.2, 1.2))
            min_pts = int(rng.integers(2, 10))
            ours = dbscan_labels(pts, eps, min_pts)
            ref = brute_force_dbscan(pts, eps, min_pts)
            if not same_clustering(ours, ref):
                diverged += 1
        _report(5, diverged == 0,
                f"{100 - diverged}/100 random point sets (<=500 points) "
                f"cluster identically to the brute-force reference")
        assert diverged == 0


# ---------------------------------------------------------------------------
# 6. PCA linearity rule
# ---------------------------------------------------------------------------

def _objs_at(centers, category="chair"):
    out = []
    for i, c in enumerate(centers):
        out.append(SceneObject(object_id=f"o{i}", category=category,
                               center=np.asarray(c, dtype=float),
                               size=np.array([0.4, 0.4, 0.4])))
    return out


class TestCriterion6PcaRule:
    GF = gravity_frame(IDENTITY_GRAVITY)

    def test_linearity_rule(self):
        checks = []

        collinear = _objs_at([(i * 1.0, 0.2, 3.0) for i in range(4)])
        checks.append(("collinear passes",
                       linear_order_reference(collinear, self.GF) is not None))

        square = _objs_at([(0, 0, 3), (1, 0, 3), (0, 0, 4), (1, 0, 4)])
        checks.append(("square grid fails",
                       linear_order_reference(square, self.GF) is None))

        ordered_ok = True
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(3, 7))
            length = float(rng.uniform(3, 8))
            xs = np.linspace(0, length, n)
            centers = []
            for x in xs:
                jitter = rng.uniform(-0.05, 0.05, size=2) * length * 0.5
                centers.append((x, 0.5 + jitter[0], 4.0 + jitter[1]))
            objs = _objs_at(centers)
            shuffled = [objs[i] for i in rng.permutation(n)]
            refs = linear_order_reference(shuffled, self.GF)
            if refs is None:
                ordered_ok = False
                break
            if [refs[f"o{i}"] for i in range(n)] != [
                    f"the {ordinal_word(i + 1)} chair from the left"
                    for i in range(n)]:
                ordered_ok = False
                break
        checks.append(("5% jitter keeps order", ordered_ok))

        failed = [name for name, ok in checks if not ok]
        _report(6, not failed,
                "collinear sets pass, square grids fail, 5%-jittered lines "
                "pass with the correct ordering")
        assert not failed, failed


# ---------------------------------------------------------------------------
# 8. Encoding checks
# ---------------------------------------------------------------------------

class TestCriterion8Encoding:
    def test_encoding_numerics(self):
        rng = np.random.default_rng(9)
        checks = []

        pm = make_pointmap(
            rng.uniform(-100, 100, size=(28, 28, 3)).astype(np.float32),
            rng.random((28, 28)) > 0.1)
        encoded = sinusoidal_encode(pm)
        checks.append(("193 channels",
                       encoded.shape[2] == 193 == ENCODED_CHANNELS))

        grid448 = rng.normal(size=(448, 448, 4))
        weights = rng.normal(size=(4 * PATCH * PATCH, 6))
        out = patchify(grid448, weights)
        checks.append(("448 -> 32x32 patch grid", out.shape[:2] == (32, 32)))

        small = rng.normal(size=(42, 56, 5))
        w_small = rng.normal(size=(5 * PATCH * PATCH, 7))
        diff = np.abs(patchify(small, w_small)
                      - patchify_reference(small, w_small)).max()
        checks.append(("patchify equals naive reference within 1e-6",
                       diff <= 1e-6))

        rgb = rng.normal(size=(8, 8, 12))
        pm_feat = rng.normal(size=(8, 8, 10))
        w_rgb = rng.normal(size=(12, 16))
        zero_diff = np.abs(
            fuse(rgb, pm_feat, w_rgb, np.zeros((10, 16))) - rgb @ w_rgb).max()
        checks.append(("zero-init fusion equivalence within 1e-6",
                       zero_diff <= 1e-6))

        failed = [name for name, ok in checks if not ok]
        _report(8, not failed,
                "193-channel encoding, 448->32 patch grid, zero-init fusion "
                "and patchify-vs-reference all hold")
        assert not failed, failed


# ---------------------------------------------------------------------------
# 9. Determinism & hermeticity
# ---------------------------------------------------------------------------

class TestCriterion9Determinism:
    def test_workers_network_and_resume(self, tmp_path, monkeypatch,
                                        child_env):
        result = generate_dataset(range(24), tmp_path / "ds", sigma=0.0,
                                  gt_boxes=True, problem_fixtures=True)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "clients": {"problem-generator": {
                "fixture_dir": str(result.fixture_dir)}},
        }))
        manifest = str(result.manifest_path)

        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "spatialqa.cli", *args],
                capture_output=True, text=True, env=child_env)
            assert proc.returncode == 0, proc.stderr
            return proc

        cli("generate", "--manifest", manifest, "--config", str(config_path),
            "--out", str(tmp_path / "w1"), "--seed", "0", "--workers", "1")
        cli("generate", "--manifest", manifest, "--config", str(config_path),
            "--out", str(tmp_path / "w8"), "--seed", "0", "--workers", "8")
        bytes_w1 = (tmp_path / "w1" / "corpus.jsonl").read_bytes()
        bytes_w8 = (tmp_path / "w8" / "corpus.jsonl").read_bytes()
        workers_identical = bytes_w1 == bytes_w8 and len(bytes_w1) > 0

        # interrupted run (first 9 images), then resume in a new process
        cli("generate", "--manifest", manifest, "--config", str(config_path),
            "--out", str(tmp_path / "resume"), "--seed", "0", "--limit", "9")
        cli("generate", "--manifest", manifest, "--config", str(config_path),
            "--out", str(tmp_path / "resume"), "--seed", "0")
        resume_identical = (tmp_path / "resume" / "corpus.jsonl"
                            ).read_bytes() == bytes_w1

        # hermeticity: all clients in fixture mode, network forbidden
        def forbid(*args, **kwargs):
            raise AssertionError("network access in fixture mode")
        monkeypatch.setattr(urllib.request, "urlopen", forbid)
        config = PipelineConfig(workers=1, seed=0, clients={
            "problem-generator": {"fixture_dir": str(result.fixture_dir)}})
        run_generate(manifest, config, tmp_path / "hermetic")
        hermetic_bytes = (tmp_path / "hermetic" / "corpus.jsonl").read_bytes()
        hermetic_ok = hermetic_bytes == bytes_w1

        passed = workers_identical and resume_identical and hermetic_ok
        _report(9, passed,
                f"1 vs 8 workers byte-identical "
                f"({len(bytes_w1)} bytes), kill/resume reproduces the "
                f"corpus, fixture mode makes zero network calls")
        assert workers_identical
        assert resume_identical
        assert hermetic_ok


# ---------------------------------------------------------------------------
# 10. Format round trips
# ---------------------------------------------------------------------------

class TestCriterion10RoundTrips:
    def test_pmap_and_quantity_round_trips(self, tmp_path):
        rng = np.random.default_rng(31)
        pmap_ok = 0
        for k in range(100):
            w = int(rng.integers(1, 24))
            h = int(rng.integers(1, 24))
            points = rng.uniform(-200, 200, size=(h, w, 3)).astype(np.float32)
            valid = rng.random((h, w)) > 0.15
            pm = make_pointmap(points, valid)
            path = tmp_path / f"{k}.pmap"
            write_pointmap(pm, path)
            back = read_pointmap(path)
            if back.points.tobytes() == pm.points.tobytes() and \
                    np.array_equal(back.valid, pm.valid):
                pmap_ok += 1

        quantity_ok = 0
        values = rng.uniform(0.005, 80.0, size=1000)
        for v in values:
            parsed = parse_quantity(format_quantity(float(v)))
            if parsed is not None and \
                    abs(parsed - v) <= PRINT_RESOLUTION_M / 2 + 1e-12:
                quantity_ok += 1

        passed = pmap_ok == 100 and quantity_ok == 1000
        _report(10, passed,
                f"{pmap_ok}/100 point maps round-trip bit-exactly; "
                f"{quantity_ok}/1000 quantities round-trip within printed "
                f"precision")
        assert pmap_ok == 100
        assert quantity_ok == 1000
