"""Fixtures shared by several test modules."""

import hashlib
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from spatialqa.config import PipelineConfig
from spatialqa.oracle.gen import generate_dataset
from spatialqa.oracle.scene import ESTIMATION_SAMPLER
from spatialqa.pipeline import run_generate


@pytest.fixture
def child_env() -> dict:
    """The environment for a child Python: this one with the checkout's
    ``src`` first on PYTHONPATH, so the child imports the package under
    test without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def tree_digest():
    """The digest of every file under a directory, with their count: sha256
    over the sorted (relative path, file sha256) pairs."""
    def digest_of(root: Path) -> tuple[str, int]:
        digest = hashlib.sha256()
        files = sorted(p.relative_to(root).as_posix()
                       for p in root.rglob("*") if p.is_file())
        for name in files:
            digest.update(f"{name}\n".encode())
            digest.update(hashlib.sha256((root / name).read_bytes()).digest())
        return digest.hexdigest(), len(files)
    return digest_of


@pytest.fixture(scope="session")
def reference(tmp_path_factory):
    """The GT-box (seeds 0:200, problem fixtures) and estimation (seeds
    0:3, sigma 0.01) reference corpora, built once per session; tests
    read them and write nothing under their directory."""
    root = tmp_path_factory.mktemp("reference")
    gt = generate_dataset(range(0, 200), root / "gt", problem_fixtures=True)
    run_generate(gt.manifest_path, PipelineConfig(clients={
        "problem-generator": {"fixture_dir": str(gt.fixture_dir)}}),
        root / "gt-out")
    est = generate_dataset(range(0, 3), root / "est", sigma=0.01,
                           gt_boxes=False, sampler=ESTIMATION_SAMPLER)
    run_generate(est.manifest_path, PipelineConfig(), root / "est-out")
    return SimpleNamespace(scenes=gt.scenes_path,
                           gt=root / "gt-out" / "corpus.jsonl",
                           estimation_manifest=est.manifest_path,
                           estimation=root / "est-out" / "corpus.jsonl")
