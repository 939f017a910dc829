"""Reference for ``cascavity.spectra.find_peaks``: the sample-by-sample walk.

Candidates are strict 3-point maxima found by stepping through the samples;
a plateau counts once, at its leftmost point, and only when the samples on
both of its sides are lower.  Prominence walks outward from the candidate
until the first strictly higher sample (or the edge of the grid).  Refinement
and widths use the package's own helpers, so this checks candidate selection
and prominence only.
"""

from cascavity.spectra import Peak, PeakSet, _half_max_width, _refine_peak


def prominence(v, i):
    h = v[i]
    left_min = h
    for j in range(i - 1, -1, -1):
        if v[j] > h:
            break
        left_min = min(left_min, v[j])
    right_min = h
    for j in range(i + 1, len(v)):
        if v[j] > h:
            break
        right_min = min(right_min, v[j])
    return h - max(left_min, right_min)


def find_peaks(x, v, min_prominence):
    threshold = min_prominence * float(v.max())
    peaks = []
    i = 1
    n = len(v)
    while i < n - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j < n - 1 and v[j + 1] < v[i]:
                if prominence(v, i) >= threshold:
                    if j > i:
                        center, height = float(x[i]), float(v[i])
                    else:
                        center, height = _refine_peak(x, v, i)
                    peaks.append(Peak(center, _half_max_width(x, v, i, v[i]), height, 0.0))
            i = j + 1
        else:
            i += 1
    return PeakSet(tuple(peaks))
