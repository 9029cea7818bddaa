"""Arc-length parameterized planar paths and point projection."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

SAMPLE_SPACING = 0.25  # m, nominal spacing of stored path points
WINDOW = 2  # segments searched on each side of the last projection's segment
# Relative slack of the bound that proves no segment outside the window is
# closer; rounding moves the compared distances by about 1e-16 of the
# lengths involved, times the segment count for arc lengths.
MARGIN = 1e-9


@dataclass(frozen=True)
class PathProjection:
    """Result of projecting a point onto a path.

    s is the arc length of the closest path point and e the signed
    lateral offset (positive to the left of the travel direction).
    """

    s: float
    e: float


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
        self.s = np.concatenate(([0.0], np.cumsum(seg_len)))
        # Python-float copies for the scalar lookups of point_at, heading_at
        # and project.
        self._s_list = self.s.tolist()
        self._north_list = north.tolist()
        self._east_list = east.tolist()
        self._segments = list(zip(dn.tolist(), de.tolist(), seg_len.tolist(), (seg_len**2).tolist()))
        self._last = 0  # segment of the last projection, where project looks first
        self._slack = MARGIN * self._s_list[-1]
        self._runs = {}  # _beyond's runs of each window (a, b), built on first use

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
        i = min(max(bisect.bisect_right(self._s_list, s) - 1, 0), len(self._segments) - 1)
        dn, de, _, _ = self._segments[i]
        return float(np.arctan2(de, dn))

    def project(self, north: float, east: float) -> PathProjection:
        """Closest-point projection of (north, east) onto the polyline.

        The closest segment is the first one with the least squared
        distance d2 over all segments (_nearest). The segments within
        WINDOW of the last projection's are tried first; their result
        stands only when _beyond proves every other segment farther, and
        all segments are scanned otherwise. So (s, e) are the
        full scan's, bit for bit, whatever was projected before.
        """
        north, east = float(north), float(east)
        if not (math.isfinite(north) and math.isfinite(east)):
            raise ValueError("query point must be finite")
        a = max(self._last - WINDOW, 0)
        b = min(self._last + WINDOW + 1, len(self._segments))
        d2, *found = self._nearest(north, east, a, b)
        if not self._beyond(north, east, a, b, math.sqrt(d2)):
            _, *found = self._nearest(north, east, 0, len(self._segments))
        k, t, cn, ce = found
        self._last = k
        dn, de, seg_len, _ = self._segments[k]
        s = self._s_list[k] + t * seg_len
        # Left normal of the segment direction: heading north means left is
        # toward negative east.
        tn = dn / seg_len
        te = de / seg_len
        e = cn * te - ce * tn
        return PathProjection(s=float(s), e=float(e))

    def _nearest(self, north: float, east: float, a: int, b: int):
        """(d2, k, t, cn, ce) of the closest of segments a..b-1: the
        squared distance, the clipped segment parameter and the residual
        vector; the first one wins a tie."""
        best = None
        for k in range(a, b):
            dn, de, _, seg_len2 = self._segments[k]
            qn = north - self._north_list[k]
            qe = east - self._east_list[k]
            t_raw = (qn * dn + qe * de) / seg_len2
            t = 0.0 if t_raw < 0.0 else 1.0 if t_raw > 1.0 else t_raw  # as np.clip
            cn = qn - t * dn
            ce = qe - t * de
            d2 = cn * cn + ce * ce
            if best is None or d2 < best[0]:
                best = (d2, k, t, cn, ce)
        return best

    def _beyond(self, north: float, east: float, a: int, b: int, dist: float) -> bool:
        """True when every segment outside a..b-1 is farther than dist from
        (north, east), by more than rounding can reverse.

        The segments outside are split into runs that double in length
        away from the window. A run of segments i..j-1 lies within
        R = max(s[m] - s[i], s[j] - s[m]) of its middle vertex m, since a
        path is never shorter than the chord, so each of its points is at
        least D - R from the query, with D the distance to vertex m. Every
        run must clear dist by MARGIN times the lengths involved. The runs
        depend only on the window, so each window's are worked out once.
        """
        floor = dist * (1.0 + MARGIN) + self._slack
        runs = self._runs.get((a, b))
        if runs is None:
            runs = self._runs[(a, b)] = self._window_runs(a, b)
        for mn, me, bound in runs:
            clear = math.hypot(north - mn, east - me) * (1.0 - MARGIN)
            if not clear > bound + floor:  # NaN fails too
                return False
        return True

    def _window_runs(self, a: int, b: int) -> list[tuple[float, float, float]]:
        """(north, east, R * (1 + MARGIN)) of the middle vertex m of each
        run outside the window a..b-1, as _beyond uses them."""
        n = len(self._segments)
        s, pn, pe = self._s_list, self._north_list, self._east_list
        runs = []
        size, j = b - a, a
        while j > 0:
            runs.append((max(j - size, 0), j))
            size, j = 2 * size, runs[-1][0]
        size, i = b - a, b
        while i < n:
            runs.append((i, min(i + size, n)))
            size, i = 2 * size, runs[-1][1]
        out = []
        for i, j in runs:
            m = (i + j) // 2
            reach = max(s[m] - s[i], s[j] - s[m])
            out.append((pn[m], pe[m], reach * (1.0 + MARGIN)))
        return out


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
