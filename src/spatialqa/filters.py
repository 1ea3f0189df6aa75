"""Image-level keep/discard decisions applied during corpus ingestion.

Both filters are pure decision functions that return why they discard
an image: nothing to say (an empty list, or None) keeps it.  The pixel
statistics and the retrieved tags are computed upstream and carried in
the manifest.
"""

from __future__ import annotations

from typing import Iterable, Sequence

PURE_PIXEL_LIMIT = 0.35    # summed pure-white + pure-black fraction
INVALID_DEPTH_LIMIT = 0.50
TAG_COUNT = 5


def heuristic_image_filter(white_frac: float, black_frac: float,
                           invalid_depth_frac: float) -> list[str]:
    """Why an image dominated by pure pixels or by invalid depth is
    discarded; an empty list keeps the image.

    Discards when white+black fraction exceeds 0.35 or the invalid-depth
    fraction exceeds 0.50 (strict >).  The white/black rule is applied to
    the summed fraction; the per-color alternative is not used.
    """
    for name, frac in (("white", white_frac), ("black", black_frac),
                       ("invalid-depth", invalid_depth_frac)):
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"{name} fraction {frac} outside [0, 1]")
    reasons = []
    if white_frac + black_frac > PURE_PIXEL_LIMIT:
        reasons.append(
            f"pure-pixel rule: white+black {white_frac + black_frac:.3f} > "
            f"{PURE_PIXEL_LIMIT}"
        )
    if invalid_depth_frac > INVALID_DEPTH_LIMIT:
        reasons.append(
            f"invalid-depth rule: {invalid_depth_frac:.3f} > {INVALID_DEPTH_LIMIT}"
        )
    return reasons


def tag_vote_filter(retrieved_tags: Sequence[str],
                    include_set: Iterable[str]) -> str | None:
    """Keep an image (None) iff more than half of its 5 retrieved tags are
    includes; otherwise the reason it is discarded.

    Every other tag is a non-include vote.  Order of the tags is
    irrelevant; only how many of them are includes matters.
    """
    include = set(include_set)
    if len(retrieved_tags) != TAG_COUNT:
        raise ValueError(f"expected {TAG_COUNT} tags, got {len(retrieved_tags)}")
    votes = sum(1 for t in retrieved_tags if t in include)
    if votes > TAG_COUNT // 2:
        return None
    return f"tag vote: {votes}/{TAG_COUNT} include tags"
