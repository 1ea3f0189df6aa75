"""Minimum-cost bipartite assignment and IoU-based category label transfer.

Predicted category-bearing 2D boxes are matched to unlabeled ground-truth
boxes by Hungarian assignment on cost = 1 - IoU; matched pairs below the
IoU cutoff are dropped afterwards and each surviving ground-truth box
inherits its prediction's category.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

IOU_KEEP_THRESHOLD = 0.4  # pairs with IoU >= threshold are kept


def box_iou(a, b) -> float:
    """IoU of two pixel boxes [x0, y0, x1, y1]."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax1, bx1), min(ay1, by1)
    iw, ih = max(0.0, ix1 - ix0), max(0.0, iy1 - iy0)
    inter = iw * ih
    area_a = max(0.0, ax1 - ax0) * max(0.0, ay1 - ay0)
    area_b = max(0.0, bx1 - bx0) * max(0.0, by1 - by0)
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost assignment of rows to distinct columns.

    Requires rows <= cols (callers transpose otherwise).  Returns
    (row_to_col, total_cost).  Shortest augmenting path formulation with
    dual potentials, O(n^2 m).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n == 0:
        return np.empty(0, dtype=int), 0.0
    if n > m:
        raise ValueError(f"need rows <= cols, got {n}x{m}")

    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=int)  # p[j] = 1-based row assigned to column j

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        way = np.zeros(m + 1, dtype=int)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    row_to_col = np.full(n, -1, dtype=int)
    for j in range(1, m + 1):
        if p[j] > 0:
            row_to_col[p[j] - 1] = j - 1
    total = float(sum(cost[i, row_to_col[i]] for i in range(n)))
    return row_to_col, total


@dataclass
class AssignmentResult:
    pairs: list[tuple[int, int, float]] = field(default_factory=list)  # (pred, gt, iou)
    unmatched_predictions: list[int] = field(default_factory=list)
    unmatched_gt: list[int] = field(default_factory=list)
    total_cost: float = 0.0


def hungarian_label_transfer(
    pred_boxes: list, pred_categories: list[str], gt_boxes: list,
) -> tuple[AssignmentResult, list[str | None]]:
    """Label ground-truth boxes with matched prediction categories.

    Returns the assignment (only pairs with IoU >= ``IOU_KEEP_THRESHOLD``)
    and a per-GT-box category list (None where no reliable match exists).
    """
    if len(pred_boxes) != len(pred_categories):
        raise ValueError("one category per predicted box required")
    np_, ng = len(pred_boxes), len(gt_boxes)
    result = AssignmentResult()
    labels: list[str | None] = [None] * ng
    if np_ == 0 or ng == 0:
        result.unmatched_predictions = list(range(np_))
        result.unmatched_gt = list(range(ng))
        return result, labels

    iou = np.zeros((np_, ng))
    for i, pb in enumerate(pred_boxes):
        for j, gb in enumerate(gt_boxes):
            iou[i, j] = box_iou(pb, gb)
    cost = 1.0 - iou

    if np_ <= ng:
        row_to_col, total = solve_assignment(cost)
        raw_pairs = [(i, int(row_to_col[i])) for i in range(np_)]
    else:
        col_to_row, total = solve_assignment(cost.T)
        raw_pairs = [(int(col_to_row[j]), j) for j in range(ng)]
    result.total_cost = total

    matched_p, matched_g = set(), set()
    for i, j in raw_pairs:
        pair_iou = float(iou[i, j])
        if pair_iou >= IOU_KEEP_THRESHOLD:
            result.pairs.append((i, j, pair_iou))
            labels[j] = pred_categories[i]
            matched_p.add(i)
            matched_g.add(j)
    result.unmatched_predictions = [i for i in range(np_) if i not in matched_p]
    result.unmatched_gt = [j for j in range(ng) if j not in matched_g]
    return result, labels
