"""Windowed Lorentzian fits of every found peak, the resonance extraction ``delta`` used before poles.

``cascavity.spectra.peak_separation_delta`` now takes resonances from the
complex transmission poles; the tests keep this sweep-and-fit route to
check fitted line shapes against closed forms and against the poles.
"""

import numpy as np

from cascavity import InvalidParameterError, find_peaks, lorentzian_fit

# Half-width multiple used to window a peak before fitting it.
FIT_WINDOW_HALFWIDTHS = 8.0


def fit_peaks(spectrum, peak_set):
    """Refine every found peak by a windowed Lorentzian fit.

    Each window spans ``FIT_WINDOW_HALFWIDTHS`` estimated half widths,
    clipped at the midpoints toward neighboring peaks, and is widened
    symmetrically if it holds fewer than 7 samples.
    """
    if len(spectrum) < 7:
        raise InvalidParameterError(f"peak fitting needs at least 7 samples, got {len(spectrum)}")
    centers = peak_set.centers()
    fitted = []
    for i, pk in enumerate(peak_set.peaks):
        half = FIT_WINDOW_HALFWIDTHS * pk.half_width
        lo = pk.center - half
        hi = pk.center + half
        if i > 0:
            lo = max(lo, 0.5 * (centers[i - 1] + pk.center))
        if i + 1 < len(centers):
            hi = min(hi, 0.5 * (pk.center + centers[i + 1]))
        step = float(np.mean(np.diff(spectrum.x)))
        while np.count_nonzero((spectrum.x >= lo) & (spectrum.x <= hi)) < 7:
            lo -= step
            hi += step
        fitted.append(lorentzian_fit(spectrum, (lo, hi)))
    return fitted


def three_peak_distances(spectrum):
    """Fitted (left, right) side-to-middle distances of a three-peak spectrum."""
    found = find_peaks(spectrum)
    if len(found) != 3:
        raise ValueError(f"expected 3 peaks, found {len(found)}")
    lo, mid, hi = fit_peaks(spectrum, found)
    return mid.center - lo.center, hi.center - mid.center
