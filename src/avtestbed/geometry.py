"""Planar overlap tests for oriented rectangles and discs.

Rectangles are given as (center_x, center_y, heading, length, width) with the
length axis along the heading.  Overlap uses the separating-axis test over the
four face normals; the returned penetration is the smallest overlap across
those axes (0 means touching or separated, which is reported as no contact).
"""

from __future__ import annotations

import math


def rect_corners(cx: float, cy: float, heading: float, length: float, width: float):
    """Corner coordinates in counterclockwise order."""
    ch, sh = math.cos(heading), math.sin(heading)
    hl, hw = length / 2.0, width / 2.0
    return [
        (cx + ch * hl - sh * hw, cy + sh * hl + ch * hw),
        (cx - ch * hl - sh * hw, cy - sh * hl + ch * hw),
        (cx - ch * hl + sh * hw, cy - sh * hl - ch * hw),
        (cx + ch * hl + sh * hw, cy + sh * hl - ch * hw),
    ]


def _axis_overlap(corners_a, corners_b, ax: float, ay: float) -> float:
    """Projection overlap of two corner sets on a unit axis; <= 0 separates."""
    a_lo = a_hi = corners_a[0][0] * ax + corners_a[0][1] * ay
    for x, y in corners_a[1:]:
        p = x * ax + y * ay
        a_lo = min(a_lo, p)
        a_hi = max(a_hi, p)
    b_lo = b_hi = corners_b[0][0] * ax + corners_b[0][1] * ay
    for x, y in corners_b[1:]:
        p = x * ax + y * ay
        b_lo = min(b_lo, p)
        b_hi = max(b_hi, p)
    return min(a_hi, b_hi) - max(a_lo, b_lo)


def rect_rect_penetration(rect_a, rect_b) -> float | None:
    """Penetration depth of two oriented rectangles, or None when apart.

    Each rect is (cx, cy, heading, length, width).
    """
    corners_a = rect_corners(*rect_a)
    corners_b = rect_corners(*rect_b)
    penetration = math.inf
    for heading in (rect_a[2], rect_b[2]):
        ch, sh = math.cos(heading), math.sin(heading)
        for ax, ay in ((ch, sh), (-sh, ch)):
            overlap = _axis_overlap(corners_a, corners_b, ax, ay)
            if overlap <= 0.0:
                return None
            penetration = min(penetration, overlap)
    return penetration


def rect_disc_penetration(rect, cx: float, cy: float, radius: float) -> float | None:
    """Penetration of a disc against an oriented rectangle, or None when apart."""
    rcx, rcy, heading, length, width = rect
    ch, sh = math.cos(heading), math.sin(heading)
    dx, dy = cx - rcx, cy - rcy
    # disc center in the rectangle frame
    lx = dx * ch + dy * sh
    ly = -dx * sh + dy * ch
    hl, hw = length / 2.0, width / 2.0
    qx = max(abs(lx) - hl, 0.0)
    qy = max(abs(ly) - hw, 0.0)
    dist = math.hypot(qx, qy)
    if qx == 0.0 and qy == 0.0:
        # center inside: penetration includes the distance to the nearest face
        inside = min(hl - abs(lx), hw - abs(ly))
        return radius + inside
    if dist >= radius:
        return None
    return radius - dist

