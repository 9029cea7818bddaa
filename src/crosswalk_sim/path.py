"""Arc-length parameterized planar paths and point projection."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

SAMPLE_SPACING = 0.25  # m, nominal spacing of stored path points


@dataclass(frozen=True)
class PathProjection:
    """Result of projecting a point onto a path.

    s is the arc length of the closest path point, e the signed lateral
    offset (positive to the left of the travel direction), and clamped is
    True when the query point falls past either end of the path.
    """

    s: float
    e: float
    clamped: bool


class Path:
    """Polyline in the inertial north/east plane, sampled densely enough
    that segments can be treated as straight."""

    def __init__(self, north, east):
        north = np.asarray(north, dtype=float)
        east = np.asarray(east, dtype=float)
        if north.ndim != 1 or north.shape != east.shape or north.size < 2:
            raise ValueError("need matching 1-d north/east arrays with >= 2 points")
        if not (np.isfinite(north).all() and np.isfinite(east).all()):
            raise ValueError("path coordinates must be finite")
        self.north = north
        self.east = east
        dn = np.diff(north)
        de = np.diff(east)
        seg_len = np.hypot(dn, de)
        if np.any(seg_len <= 0.0):
            raise ValueError("path contains repeated points")
        self._dn = dn
        self._de = de
        self._seg_len = seg_len
        self.s = np.concatenate(([0.0], np.cumsum(seg_len)))
        # Python-float copies for the scalar lookups of point_at.
        self._s_list = self.s.tolist()
        self._north_list = north.tolist()
        self._east_list = east.tolist()

    @property
    def length(self) -> float:
        return float(self.s[-1])

    def point_at(self, s: float) -> tuple[float, float]:
        """Interpolated (north, east) at arc length s, clamped to the ends.

        Bit for bit what np.interp returns, without its array dispatch.
        """
        s = float(s)
        if math.isnan(s):
            return s, s
        xp = self._s_list
        s = min(max(s, 0.0), xp[-1])
        j = bisect.bisect_right(xp, s) - 1
        if xp[j] == s:  # always so at the far end, where j + 1 is past it
            return self._north_list[j], self._east_list[j]
        return _interp(s, xp, self._north_list, j), _interp(s, xp, self._east_list, j)

    def heading_at(self, s: float) -> float:
        """Tangent direction at arc length s, measured from north toward east."""
        i = int(np.clip(np.searchsorted(self.s, s, side="right") - 1, 0, len(self._dn) - 1))
        return float(np.arctan2(self._de[i], self._dn[i]))

    def project(self, north: float, east: float) -> PathProjection:
        """Closest-point projection of (north, east) onto the polyline."""
        if not (np.isfinite(north) and np.isfinite(east)):
            raise ValueError("query point must be finite")
        qn = north - self.north[:-1]
        qe = east - self.east[:-1]
        t_raw = (qn * self._dn + qe * self._de) / (self._seg_len**2)
        t = np.clip(t_raw, 0.0, 1.0)
        cn = qn - t * self._dn
        ce = qe - t * self._de
        d2 = cn * cn + ce * ce
        k = int(np.argmin(d2))
        s = float(self.s[k] + t[k] * self._seg_len[k])
        # Left normal of the segment direction: heading north means left is
        # toward negative east.
        tn = self._dn[k] / self._seg_len[k]
        te = self._de[k] / self._seg_len[k]
        e = float(cn[k] * te - ce[k] * tn)
        clamped = (k == 0 and t_raw[0] < 0.0) or (
            k == len(t) - 1 and t_raw[-1] > 1.0
        )
        return PathProjection(s=s, e=e, clamped=clamped)


def _interp(x: float, xp: list, fp: list, j: int) -> float:
    """np.interp's formula between samples j and j + 1."""
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]


def resample_by_arc(north, east, spacing: float, total_length: float | None = None):
    """Resample a dense polyline at equal arc-length increments.

    When total_length is given the result is truncated there; the source
    polyline must extend at least that far.
    """
    path = Path(north, east)
    end = path.length if total_length is None else float(total_length)
    if end > path.length + 1e-9:
        raise ValueError("polyline shorter than requested length")
    svals = np.arange(0.0, end + spacing / 2, spacing)
    svals[-1] = min(svals[-1], end)
    n = np.interp(svals, path.s, path.north)
    e = np.interp(svals, path.s, path.east)
    return n, e
