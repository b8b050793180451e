"""Brute-force reference implementations used to verify the library.

Everything here recomputes features from first principles with explicit
enumeration (voxel loops, flood fill, direct distance tests) so the fast
vectorized implementations are checked against an independent path.
"""
from __future__ import annotations

import math

import numpy as np

DIRECTIONS_13 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
]

OFFSETS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]

SPHERE_RADIUS_MM = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0) * 10.0


def _in_bounds(dims, x, y, z):
    return 0 <= x < dims[0] and 0 <= y < dims[1] and 0 <= z < dims[2]


# ---------------------------------------------------------------- intensity


def discretize_fbn(values, mask, ng):
    """Levels map per the fixed-bin-number contract; returns (levels, eff_ng)."""
    roi = values[mask]
    lo, hi = roi.min(), roi.max()
    levels = np.zeros(values.shape, dtype=int)
    if hi == lo:
        levels[mask] = 1
        return levels, 1
    for x, y, z in zip(*np.nonzero(mask)):
        lv = int(math.floor(ng * (values[x, y, z] - lo) / (hi - lo))) + 1
        levels[x, y, z] = min(ng, lv)
    return levels, ng


def discretize_fbs(values, mask, width, origin):
    """Fixed-bin-size levels, renumbered so the lowest occupied level is 1."""
    raw = {}
    for x, y, z in zip(*np.nonzero(mask)):
        raw[(x, y, z)] = int(math.floor((values[x, y, z] - origin) / width)) + 1
    shift = 1 - min(raw.values())
    levels = np.zeros(values.shape, dtype=int)
    for coord, bin_index in raw.items():
        levels[coord] = bin_index + shift
    return levels, max(raw.values()) + shift


def local_intensity_features(values, mask, spacing):
    """Sphere means by direct distance test over every candidate voxel."""
    dims = values.shape
    sx, sy, sz = spacing
    hx = int(math.floor(SPHERE_RADIUS_MM / sx))
    hy = int(math.floor(SPHERE_RADIUS_MM / sy))
    hz = int(math.floor(SPHERE_RADIUS_MM / sz))
    offsets = []
    for dx in range(-hx, hx + 1):
        for dy in range(-hy, hy + 1):
            for dz in range(-hz, hz + 1):
                if (dx * sx) ** 2 + (dy * sy) ** 2 + (dz * sz) ** 2 <= SPHERE_RADIUS_MM**2:
                    offsets.append((dx, dy, dz))
    offsets = np.array(offsets)

    def sphere_mean(cx, cy, cz):
        pts = offsets + (cx, cy, cz)
        ok = (
            (pts[:, 0] >= 0)
            & (pts[:, 0] < dims[0])
            & (pts[:, 1] >= 0)
            & (pts[:, 1] < dims[1])
            & (pts[:, 2] >= 0)
            & (pts[:, 2] < dims[2])
        )
        pts = pts[ok]
        return float(np.mean(values[pts[:, 0], pts[:, 1], pts[:, 2]]))

    roi_coords = list(zip(*np.nonzero(mask)))
    best_value = -math.inf
    center = None
    # flat index order is x-fastest
    for x, y, z in sorted(roi_coords, key=lambda c: c[0] + dims[0] * (c[1] + dims[1] * c[2])):
        if values[x, y, z] > best_value:
            best_value = values[x, y, z]
            center = (x, y, z)
    local_peak = sphere_mean(*center)
    global_peak = max(sphere_mean(x, y, z) for x, y, z in roi_coords)
    return {"local_peak": local_peak, "global_peak": global_peak}


def box_local_intensity(values, mask, spacing):
    """LI from sphere sums convolved with `scipy.signal.fftconvolve`, the
    kernel transformed on every call, on the ROI's bounding box plus one
    voxel per side widened by the sphere's reach and clipped at the grid,
    and in-grid counts found by adding one per sphere offset at each box
    voxel whose offset voxel lies in the grid: the reference for
    `transfid.radiomics.intensity`, whose sums must keep every bit of that
    convolution and whose counts must be these integers."""
    from scipy.signal import fftconvolve

    dims = values.shape
    half = [int(math.floor(SPHERE_RADIUS_MM / s)) for s in spacing]
    ax = [np.arange(-h, h + 1) * s for h, s in zip(half, spacing)]
    dx, dy, dz = np.meshgrid(*ax, indexing="ij")
    kernel = (dx * dx + dy * dy + dz * dz <= SPHERE_RADIUS_MM**2).astype(float)
    box = [slice(max(int(i.min()) - 1, 0), min(int(i.max()) + 2, n)) for i, n in zip(np.nonzero(mask), dims)]
    around = tuple(slice(max(b.start - h, 0), min(b.stop + h, n)) for b, h, n in zip(box, half, dims))
    sums = np.zeros(dims)
    sums[around] = fftconvolve(values[around], kernel, mode="same")
    counts = np.zeros(dims, dtype=np.int64)
    for offset in np.argwhere(kernel) - half:
        # the box voxels x with 0 <= x + offset < n on every axis (none where that span is empty)
        spans = [(max(-o, b.start), min(n - o, b.stop)) for o, b, n in zip(offset, box, dims)]
        counts[tuple(slice(lo, max(lo, hi)) for lo, hi in spans)] += 1
    flat = np.where(mask, values, -np.inf).ravel(order="F")
    center = np.unravel_index(np.argmax(flat), dims, order="F")
    return {"local_peak": float(sums[center] / counts[center]),
            "global_peak": float((sums[mask] / counts[mask]).max())}


def percentile_nearest_rank(sorted_vals, p):
    n = len(sorted_vals)
    idx = max(0, math.ceil(p / 100.0 * n) - 1)
    return float(sorted_vals[min(idx, n - 1)])


def distribution_stats(values):
    x = sorted(float(v) for v in values)
    n = len(x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / n
    p10 = percentile_nearest_rank(x, 10)
    p25 = percentile_nearest_rank(x, 25)
    p75 = percentile_nearest_rank(x, 75)
    p90 = percentile_nearest_rank(x, 90)
    if n % 2 == 1:
        median = x[n // 2]
    else:
        median = 0.5 * (x[n // 2 - 1] + x[n // 2])

    if var > 0:
        skew = (sum((v - mean) ** 3 for v in x) / n) / var**1.5
        kurt = (sum((v - mean) ** 4 for v in x) / n) / var**2 - 3.0
    else:
        skew = kurt = math.nan
    cov = math.sqrt(var) / mean if var > 0 and mean != 0 else math.nan
    qcd = (p75 - p25) / (p75 + p25) if p75 + p25 != 0 else math.nan

    robust = [v for v in x if p10 <= v <= p90]
    rmean = sum(robust) / len(robust)
    return {
        "mean": mean,
        "variance": var,
        "skewness": skew,
        "kurtosis": kurt,
        "median": median,
        "minimum": x[0],
        "percentile_10": p10,
        "percentile_90": p90,
        "maximum": x[-1],
        "interquartile_range": p75 - p25,
        "range": x[-1] - x[0],
        "mean_absolute_deviation": sum(abs(v - mean) for v in x) / n,
        "robust_mean_absolute_deviation": sum(abs(v - rmean) for v in robust) / len(robust),
        "median_absolute_deviation": sum(abs(v - median) for v in x) / n,
        "coefficient_of_variation": cov,
        "quartile_coefficient_of_dispersion": qcd,
    }


def intensity_statistics_features(values, mask):
    roi = [float(v) for v in values[mask]]
    feats = distribution_stats(roi)
    feats["energy"] = sum(v * v for v in roi)
    feats["root_mean_square"] = math.sqrt(sum(v * v for v in roi) / len(roi))
    return feats


def histogram_features(levels, mask, ng):
    roi = [int(v) for v in levels[mask]]
    feats = distribution_stats(roi)
    counts = [0.0] * ng
    for v in roi:
        counts[v - 1] += 1
    n = len(roi)
    probs = [c / n for c in counts]
    feats["mode"] = float(counts.index(max(counts)) + 1)
    feats["entropy"] = -sum(p * math.log2(p) for p in probs if p > 0)
    feats["uniformity"] = sum(p * p for p in probs)
    if ng >= 2:
        grad = []
        for i in range(ng):
            if i == 0:
                grad.append(counts[1] - counts[0])
            elif i == ng - 1:
                grad.append(counts[-1] - counts[-2])
            else:
                grad.append((counts[i + 1] - counts[i - 1]) / 2.0)
        feats["maximum_gradient"] = max(grad)
        feats["maximum_gradient_level"] = float(grad.index(max(grad)) + 1)
        feats["minimum_gradient"] = min(grad)
        feats["minimum_gradient_level"] = float(grad.index(min(grad)) + 1)
    else:
        for key in (
            "maximum_gradient",
            "maximum_gradient_level",
            "minimum_gradient",
            "minimum_gradient_level",
        ):
            feats[key] = math.nan
    return feats


def ivh_features(values, mask, bins=1000):
    roi = [float(v) for v in values[mask]]
    lo, hi = min(roi), max(roi)
    n = len(roi)
    if hi == lo:
        return {
            "v10": 1.0,
            "v90": 1.0,
            "i10": lo,
            "i90": lo,
            "v10_minus_v90": 0.0,
            "i10_minus_i90": 0.0,
            "area_under_curve": 1.0,
        }
    gammas = [k / bins for k in range(bins + 1)]
    nu = []
    for g in gammas:
        thr = lo + g * (hi - lo)
        nu.append(sum(1 for v in roi if v >= thr) / n)

    def volume_at(frac):
        # piecewise-linear read off the sampled curve
        for k in range(bins):
            if gammas[k] <= frac <= gammas[k + 1]:
                t = (frac - gammas[k]) / (gammas[k + 1] - gammas[k])
                return nu[k] + t * (nu[k + 1] - nu[k])
        return nu[-1]

    def intensity_at(frac):
        k = None
        for idx, value in enumerate(nu):
            if value <= frac:
                k = idx
                break
        if k is None:
            return hi
        if k == 0:
            return lo
        g = gammas[k - 1] + (nu[k - 1] - frac) * (gammas[k] - gammas[k - 1]) / (nu[k - 1] - nu[k])
        return lo + g * (hi - lo)

    auc = 0.0
    for k in range(bins):
        auc += 0.5 * (nu[k] + nu[k + 1]) * (gammas[k + 1] - gammas[k])
    v10, v90 = volume_at(0.10), volume_at(0.90)
    i10, i90 = intensity_at(0.10), intensity_at(0.90)
    return {
        "v10": v10,
        "v90": v90,
        "i10": i10,
        "i90": i90,
        "v10_minus_v90": v10 - v90,
        "i10_minus_i90": i10 - i90,
        "area_under_curve": auc,
    }


# ------------------------------------------------------------------ texture


def shift_slices(dims, offset):
    """Slice pair (at_voxel, at_voxel_plus_offset) covering all in-bounds
    pairs: the 3-D reference for the program's flat pair rule
    (`transfid.volume.flat_pairs`)."""
    src = []
    dst = []
    for d, o in zip(dims, offset):
        if o >= 0:
            src.append(slice(0, max(0, d - o)))
            dst.append(slice(min(o, d), d))
        else:
            src.append(slice(min(-o, d), d))
            dst.append(slice(0, max(0, d + o)))
    return tuple(src), tuple(dst)


def glcm_direction_matrix(levels, mask, ng, off):
    """Symmetrized pair counts by scanning every in-mask voxel."""
    dims = levels.shape
    m = np.zeros((ng, ng))
    for x, y, z in zip(*np.nonzero(mask)):
        nx, ny, nz = x + off[0], y + off[1], z + off[2]
        if _in_bounds(dims, nx, ny, nz) and mask[nx, ny, nz]:
            m[levels[x, y, z] - 1, levels[nx, ny, nz] - 1] += 1
    return m + m.T


def glcm_features_from_matrix(p):
    ng = p.shape[0]
    feats = {}
    pi = [sum(p[i, j] for j in range(ng)) for i in range(ng)]
    mu = sum((i + 1) * p[i, j] for i in range(ng) for j in range(ng))
    var = sum((i + 1 - mu) ** 2 * p[i, j] for i in range(ng) for j in range(ng))

    p_minus = [0.0] * ng
    p_plus = [0.0] * (2 * ng - 1)
    for i in range(ng):
        for j in range(ng):
            p_minus[abs(i - j)] += p[i, j]
            p_plus[i + j] += p[i, j]
    da = sum(k * p_minus[k] for k in range(ng))
    sa = sum((k + 2) * p_plus[k] for k in range(2 * ng - 1))

    hxy = -sum(v * math.log2(v) for v in p.ravel() if v > 0)
    hx = -sum(v * math.log2(v) for v in pi if v > 0)
    hxy1 = -sum(
        p[i, j] * math.log2(pi[i] * pi[j])
        for i in range(ng)
        for j in range(ng)
        if p[i, j] > 0
    )
    hxy2 = -sum(
        pi[i] * pi[j] * math.log2(pi[i] * pi[j])
        for i in range(ng)
        for j in range(ng)
        if pi[i] * pi[j] > 0
    )

    feats["joint_maximum"] = float(p.max())
    feats["joint_average"] = mu
    feats["joint_variance"] = var
    feats["joint_entropy"] = hxy
    feats["difference_average"] = da
    feats["difference_variance"] = sum((k - da) ** 2 * p_minus[k] for k in range(ng))
    feats["difference_entropy"] = -sum(v * math.log2(v) for v in p_minus if v > 0)
    feats["sum_average"] = sa
    feats["sum_variance"] = sum((k + 2 - sa) ** 2 * p_plus[k] for k in range(2 * ng - 1))
    feats["sum_entropy"] = -sum(v * math.log2(v) for v in p_plus if v > 0)
    feats["angular_second_moment"] = sum(v * v for v in p.ravel())
    feats["contrast"] = sum((i - j) ** 2 * p[i, j] for i in range(ng) for j in range(ng))
    feats["dissimilarity"] = sum(abs(i - j) * p[i, j] for i in range(ng) for j in range(ng))
    feats["inverse_difference"] = sum(
        p[i, j] / (1 + abs(i - j)) for i in range(ng) for j in range(ng)
    )
    feats["inverse_difference_normalised"] = sum(
        p[i, j] / (1 + abs(i - j) / ng) for i in range(ng) for j in range(ng)
    )
    feats["inverse_difference_moment"] = sum(
        p[i, j] / (1 + (i - j) ** 2) for i in range(ng) for j in range(ng)
    )
    feats["inverse_difference_moment_normalised"] = sum(
        p[i, j] / (1 + (i - j) ** 2 / ng**2) for i in range(ng) for j in range(ng)
    )
    feats["inverse_variance"] = sum(
        p[i, j] / (i - j) ** 2 for i in range(ng) for j in range(ng) if i != j
    )
    if var > 0:
        feats["correlation"] = (
            sum((i + 1 - mu) * (j + 1 - mu) * p[i, j] for i in range(ng) for j in range(ng)) / var
        )
    else:
        feats["correlation"] = math.nan
    feats["autocorrelation"] = sum(
        (i + 1) * (j + 1) * p[i, j] for i in range(ng) for j in range(ng)
    )
    for power, name in ((2, "cluster_tendency"), (3, "cluster_shade"), (4, "cluster_prominence")):
        feats[name] = sum(
            (i + 1 + j + 1 - 2 * mu) ** power * p[i, j] for i in range(ng) for j in range(ng)
        )
    feats["information_correlation_1"] = (hxy - hxy1) / hx if hx > 0 else math.nan
    feats["information_correlation_2"] = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))
    return feats


def glrlm_direction_matrix(levels, mask, ng, off):
    """Run counts by following each run from its first voxel."""
    dims = levels.shape
    runs = {}
    for x, y, z in zip(*np.nonzero(mask)):
        px, py, pz = x - off[0], y - off[1], z - off[2]
        starts_run = not (
            _in_bounds(dims, px, py, pz)
            and mask[px, py, pz]
            and levels[px, py, pz] == levels[x, y, z]
        )
        if not starts_run:
            continue
        length = 1
        cx, cy, cz = x + off[0], y + off[1], z + off[2]
        while (
            _in_bounds(dims, cx, cy, cz)
            and mask[cx, cy, cz]
            and levels[cx, cy, cz] == levels[x, y, z]
        ):
            length += 1
            cx, cy, cz = cx + off[0], cy + off[1], cz + off[2]
        runs[(levels[x, y, z], length)] = runs.get((levels[x, y, z], length), 0) + 1

    max_len = max(length for _, length in runs)
    m = np.zeros((ng, max_len))
    for (level, length), count in runs.items():
        m[level - 1, length - 1] = count
    return m


def row_column_features(matrix, n_voxels):
    ng, ncol = matrix.shape
    ns = float(matrix.sum())
    feats = {
        "small_emphasis": 0.0,
        "large_emphasis": 0.0,
        "low_level_emphasis": 0.0,
        "high_level_emphasis": 0.0,
        "small_low_emphasis": 0.0,
        "small_high_emphasis": 0.0,
        "large_low_emphasis": 0.0,
        "large_high_emphasis": 0.0,
    }
    mu_i = mu_j = 0.0
    for i in range(1, ng + 1):
        for j in range(1, ncol + 1):
            c = matrix[i - 1, j - 1]
            if c == 0:
                continue
            feats["small_emphasis"] += c / j**2
            feats["large_emphasis"] += c * j**2
            feats["low_level_emphasis"] += c / i**2
            feats["high_level_emphasis"] += c * i**2
            feats["small_low_emphasis"] += c / (i**2 * j**2)
            feats["small_high_emphasis"] += c * i**2 / j**2
            feats["large_low_emphasis"] += c * j**2 / i**2
            feats["large_high_emphasis"] += c * i**2 * j**2
            mu_i += i * c / ns
            mu_j += j * c / ns
    for key in list(feats):
        feats[key] /= ns

    row = [sum(matrix[i, :]) for i in range(ng)]
    col = [sum(matrix[:, j]) for j in range(ncol)]
    feats["level_non_uniformity"] = sum(r * r for r in row) / ns
    feats["level_non_uniformity_normalised"] = sum(r * r for r in row) / ns**2
    feats["magnitude_non_uniformity"] = sum(c * c for c in col) / ns
    feats["magnitude_non_uniformity_normalised"] = sum(c * c for c in col) / ns**2
    feats["percentage"] = ns / n_voxels
    feats["level_variance"] = sum(
        (i + 1 - mu_i) ** 2 * matrix[i, j] / ns for i in range(ng) for j in range(ncol)
    )
    feats["magnitude_variance"] = sum(
        (j + 1 - mu_j) ** 2 * matrix[i, j] / ns for i in range(ng) for j in range(ncol)
    )
    feats["entropy"] = -sum(
        matrix[i, j] / ns * math.log2(matrix[i, j] / ns)
        for i in range(ng)
        for j in range(ncol)
        if matrix[i, j] > 0
    )
    feats["energy"] = sum((matrix[i, j] / ns) ** 2 for i in range(ng) for j in range(ncol))
    return feats


def border_distance_map(mask):
    """City-block distance to outside the ROI by breadth-first layers."""
    dims = mask.shape
    dist = np.full(dims, np.inf)
    frontier = []
    for x, y, z in zip(*np.nonzero(mask)):
        at_border = False
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nx, ny, nz = x + dx, y + dy, z + dz
            if not _in_bounds(dims, nx, ny, nz) or not mask[nx, ny, nz]:
                at_border = True
                break
        if at_border:
            dist[x, y, z] = 1
            frontier.append((x, y, z))
    level = 1
    while frontier:
        nxt = []
        for x, y, z in frontier:
            for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                nx, ny, nz = x + dx, y + dy, z + dz
                if _in_bounds(dims, nx, ny, nz) and mask[nx, ny, nz] and dist[nx, ny, nz] > level + 1:
                    dist[nx, ny, nz] = level + 1
                    nxt.append((nx, ny, nz))
        frontier = nxt
        level += 1
    return dist


def zones(levels, mask):
    """(level, size, min border distance) per 26-connected zone via flood fill."""
    dims = levels.shape
    dist = border_distance_map(mask)
    visited = np.zeros(dims, dtype=bool)
    out = []
    for x, y, z in zip(*np.nonzero(mask)):
        if visited[x, y, z]:
            continue
        level = levels[x, y, z]
        stack = [(x, y, z)]
        visited[x, y, z] = True
        size = 0
        min_dist = math.inf
        while stack:
            cx, cy, cz = stack.pop()
            size += 1
            min_dist = min(min_dist, dist[cx, cy, cz])
            for dx, dy, dz in OFFSETS_26:
                nx, ny, nz = cx + dx, cy + dy, cz + dz
                if (
                    _in_bounds(dims, nx, ny, nz)
                    and mask[nx, ny, nz]
                    and not visited[nx, ny, nz]
                    and levels[nx, ny, nz] == level
                ):
                    visited[nx, ny, nz] = True
                    stack.append((nx, ny, nz))
        out.append((level, size, int(min_dist)))
    return out


def zone_matrices(levels, mask, ng):
    zone_list = zones(levels, mask)
    max_size = max(size for _, size, _ in zone_list)
    max_dist = max(distance for _, _, distance in zone_list)
    glszm = np.zeros((ng, max_size))
    gldzm = np.zeros((ng, max_dist))
    for level, size, distance in zone_list:
        glszm[level - 1, size - 1] += 1
        gldzm[level - 1, distance - 1] += 1
    return glszm, gldzm


def ngtdm_table(levels, mask, ng):
    dims = levels.shape
    n_i = [0.0] * ng
    s_i = [0.0] * ng
    for x, y, z in zip(*np.nonzero(mask)):
        total = 0.0
        count = 0
        for dx, dy, dz in OFFSETS_26:
            nx, ny, nz = x + dx, y + dy, z + dz
            if _in_bounds(dims, nx, ny, nz) and mask[nx, ny, nz]:
                total += levels[nx, ny, nz]
                count += 1
        if count == 0:
            continue
        level = levels[x, y, z]
        n_i[level - 1] += 1
        s_i[level - 1] += abs(level - total / count)
    return n_i, s_i


def ngtdm_features(levels, mask, ng):
    n_i, s_i = ngtdm_table(levels, mask, ng)
    n_vc = sum(n_i)
    if n_vc == 0:
        return {name: math.nan for name in ("coarseness", "contrast", "busyness", "complexity", "strength")}
    present = [i for i in range(ng) if n_i[i] > 0]
    p = [n / n_vc for n in n_i]
    n_gp = len(present)

    denom = sum(p[i] * s_i[i] for i in present)
    coarseness = 1.0 / denom if denom > 0 else 1.0 / 1e-6

    if n_gp >= 2:
        pair = sum(p[i] * p[j] * (i - j) ** 2 for i in present for j in present)
        contrast = pair / (n_gp * (n_gp - 1)) * sum(s_i[i] for i in present) / n_vc
    else:
        contrast = 0.0

    busy_denom = sum(
        abs((i + 1) * p[i] - (j + 1) * p[j]) for i in present for j in present
    )
    busyness = denom / busy_denom if busy_denom > 0 else 0.0

    complexity = (
        sum(
            abs(i - j) * (p[i] * s_i[i] + p[j] * s_i[j]) / (p[i] + p[j])
            for i in present
            for j in present
        )
        / n_vc
    )
    s_total = sum(s_i[i] for i in present)
    strength = (
        sum((p[i] + p[j]) * (i - j) ** 2 for i in present for j in present) / s_total
        if s_total > 0
        else 0.0
    )
    return {
        "coarseness": coarseness,
        "contrast": contrast,
        "busyness": busyness,
        "complexity": complexity,
        "strength": strength,
    }


def ngldm_matrix(levels, mask, ng, alpha=0):
    dims = levels.shape
    entries = []
    for x, y, z in zip(*np.nonzero(mask)):
        k = 0
        for dx, dy, dz in OFFSETS_26:
            nx, ny, nz = x + dx, y + dy, z + dz
            if (
                _in_bounds(dims, nx, ny, nz)
                and mask[nx, ny, nz]
                and abs(int(levels[nx, ny, nz]) - int(levels[x, y, z])) <= alpha
            ):
                k += 1
        entries.append((levels[x, y, z], k))
    max_col = max(k for _, k in entries) + 1
    m = np.zeros((ng, max_col))
    for level, k in entries:
        m[level - 1, k] += 1
    return m


# ------------------------------------------------------------ aggregations

_GENERIC_GLCM_AGGS = ("dir_avg", "dir_merged")


def glcm_aggregated(levels, mask, ng):
    """Per-direction features averaged, and merged-matrix features."""
    matrices = [glcm_direction_matrix(levels, mask, ng, off) for off in DIRECTIONS_13]
    occupied = [m for m in matrices if m.sum() > 0]
    names = list(glcm_features_from_matrix(np.eye(2) / 2).keys())
    if not occupied:
        nan = {name: math.nan for name in names}
        return {"dir_avg": nan, "dir_merged": dict(nan)}

    per_dir = [glcm_features_from_matrix(m / m.sum()) for m in occupied]
    avg = {}
    for name in names:
        vals = [f[name] for f in per_dir if not math.isnan(f[name])]
        avg[name] = sum(vals) / len(vals) if vals else math.nan
    merged = sum(occupied)
    merged_feats = glcm_features_from_matrix(merged / merged.sum())
    return {"dir_avg": avg, "dir_merged": merged_feats}


def glrlm_aggregated(levels, mask, ng, n_voxels):
    matrices = [glrlm_direction_matrix(levels, mask, ng, off) for off in DIRECTIONS_13]
    per_dir = [row_column_features(m, n_voxels) for m in matrices]
    names = per_dir[0].keys()
    avg = {name: sum(f[name] for f in per_dir) / len(per_dir) for name in names}

    cols = max(m.shape[1] for m in matrices)
    merged = np.zeros((ng, cols))
    for m in matrices:
        merged[:, : m.shape[1]] += m
    merged_feats = row_column_features(merged, n_voxels * len(DIRECTIONS_13))
    return {"dir_avg": avg, "dir_merged": merged_feats}


# ---------------------------------------------------------------- ssim / stats


def ssim3d(a, b, window=5, k1=0.01, k2=0.03, dynamic_range=1.0, sigma=1.5):
    """Per-window weighted moments with boundary renormalization."""
    dims = a.shape
    size = 2 * window + 1
    axis = np.arange(-window, window + 1, dtype=float)
    g = np.exp(-(axis**2) / (2 * sigma**2))
    kernel = g[:, None, None] * g[None, :, None] * g[None, None, :]
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2

    total = 0.0
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                x0, x1 = max(0, x - window), min(dims[0], x + window + 1)
                y0, y1 = max(0, y - window), min(dims[1], y + window + 1)
                z0, z1 = max(0, z - window), min(dims[2], z + window + 1)
                kw = kernel[
                    x0 - x + window : x1 - x + window,
                    y0 - y + window : y1 - y + window,
                    z0 - z + window : z1 - z + window,
                ]
                w = kw / kw.sum()
                wa = a[x0:x1, y0:y1, z0:z1]
                wb = b[x0:x1, y0:y1, z0:z1]
                mu_a = float((w * wa).sum())
                mu_b = float((w * wb).sum())
                var_a = float((w * wa * wa).sum()) - mu_a**2
                var_b = float((w * wb * wb).sum()) - mu_b**2
                cov = float((w * wa * wb).sum()) - mu_a * mu_b
                total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                    (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                )
    return total / (dims[0] * dims[1] * dims[2])


def gaussian_taps(window, sigma):
    """The 1-D Gaussian taps of a (2 * window + 1)-wide SSIM window."""
    i = np.arange(-window, window + 1, dtype=np.float64)
    return np.exp(-(i * i) / (2.0 * sigma * sigma))


def correlate1d_windowed_sums(values, taps):
    """The separable window sums as three `scipy.ndimage.correlate1d` passes,
    zero outside the grid."""
    from scipy.ndimage import correlate1d

    for axis in range(3):
        values = correlate1d(values, taps, axis=axis, mode="constant", cval=0.0)
    return values


def correlate1d_ssim3d(a, b, mask=None, window=5, k1=0.01, k2=0.03, dynamic_range=1.0, sigma=1.5):
    """SSIM from `correlate1d` window sums over the whole grid, nothing cached:
    the reference for `transfid.iqa.ssim3d`, whose slab-wise sums and cached
    moments must keep every bit of it."""
    taps = gaussian_taps(window, sigma)

    def sums(x):
        return correlate1d_windowed_sums(x, taps)

    weight = sums(np.ones(a.shape))
    mu_a = sums(a) / weight
    mu_b = sums(b) / weight
    var_a = sums(a * a) / weight - mu_a * mu_a
    var_b = sums(b * b) / weight - mu_b * mu_b
    cov = sums(a * b) / weight - mu_a * mu_b
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_b + var_a + c2)
    )
    return float(np.mean(ssim_map if mask is None else ssim_map[mask]))


def ranks(v):
    """Average ranks by counting: (number below) + (number equal + 1) / 2."""
    out = []
    for xi in v:
        less = sum(1 for yi in v if yi < xi)
        equal = sum(1 for yi in v if yi == xi)
        out.append(less + (equal + 1) / 2.0)
    return out


def spearman(x, y):
    """Hand-ranked Pearson correlation with average ranks."""
    rx, ry = ranks(x), ranks(y)
    n = len(x)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return math.nan
    return sxy / math.sqrt(sxx * syy)


# ------------------------------------------------------------- whole vector

# independent name -> generic-formula assignments for the matrix families
GLRLM_MAP = {
    "short_run_emphasis": "small_emphasis",
    "long_run_emphasis": "large_emphasis",
    "low_grey_level_run_emphasis": "low_level_emphasis",
    "high_grey_level_run_emphasis": "high_level_emphasis",
    "short_run_low_grey_level_emphasis": "small_low_emphasis",
    "short_run_high_grey_level_emphasis": "small_high_emphasis",
    "long_run_low_grey_level_emphasis": "large_low_emphasis",
    "long_run_high_grey_level_emphasis": "large_high_emphasis",
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "run_length_non_uniformity": "magnitude_non_uniformity",
    "run_length_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "run_percentage": "percentage",
    "grey_level_variance": "level_variance",
    "run_length_variance": "magnitude_variance",
    "run_entropy": "entropy",
}

GLSZM_MAP = {
    "small_zone_emphasis": "small_emphasis",
    "large_zone_emphasis": "large_emphasis",
    "low_grey_level_zone_emphasis": "low_level_emphasis",
    "high_grey_level_zone_emphasis": "high_level_emphasis",
    "small_zone_low_grey_level_emphasis": "small_low_emphasis",
    "small_zone_high_grey_level_emphasis": "small_high_emphasis",
    "large_zone_low_grey_level_emphasis": "large_low_emphasis",
    "large_zone_high_grey_level_emphasis": "large_high_emphasis",
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "zone_size_non_uniformity": "magnitude_non_uniformity",
    "zone_size_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "zone_percentage": "percentage",
    "grey_level_variance": "level_variance",
    "zone_size_variance": "magnitude_variance",
    "zone_size_entropy": "entropy",
}

GLDZM_MAP = {
    "small_distance_emphasis": "small_emphasis",
    "large_distance_emphasis": "large_emphasis",
    "low_grey_level_zone_emphasis": "low_level_emphasis",
    "high_grey_level_zone_emphasis": "high_level_emphasis",
    "small_distance_low_grey_level_emphasis": "small_low_emphasis",
    "small_distance_high_grey_level_emphasis": "small_high_emphasis",
    "large_distance_low_grey_level_emphasis": "large_low_emphasis",
    "large_distance_high_grey_level_emphasis": "large_high_emphasis",
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "zone_distance_non_uniformity": "magnitude_non_uniformity",
    "zone_distance_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "zone_percentage": "percentage",
    "grey_level_variance": "level_variance",
    "zone_distance_variance": "magnitude_variance",
    "zone_distance_entropy": "entropy",
}

NGLDM_MAP = {
    "low_dependence_emphasis": "small_emphasis",
    "high_dependence_emphasis": "large_emphasis",
    "low_grey_level_count_emphasis": "low_level_emphasis",
    "high_grey_level_count_emphasis": "high_level_emphasis",
    "low_dependence_low_grey_level_emphasis": "small_low_emphasis",
    "low_dependence_high_grey_level_emphasis": "small_high_emphasis",
    "high_dependence_low_grey_level_emphasis": "large_low_emphasis",
    "high_dependence_high_grey_level_emphasis": "large_high_emphasis",
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "dependence_count_non_uniformity": "magnitude_non_uniformity",
    "dependence_count_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "dependence_count_percentage": "percentage",
    "grey_level_variance": "level_variance",
    "dependence_count_variance": "magnitude_variance",
    "dependence_count_entropy": "entropy",
    "dependence_count_energy": "energy",
}


def extract_all_features(values, mask, spacing, ng=8, ivh_bins=1000, alpha=0):
    """Assemble all 186 canonical features from the oracle pieces."""
    levels, eff_ng = discretize_fbn(values, mask, ng)
    n_voxels = int(mask.sum())

    vector = {}

    def put(prefix, feats):
        for name, value in feats.items():
            vector[f"{prefix}.{name}"] = value

    put("li", local_intensity_features(values, mask, spacing))
    put("is", intensity_statistics_features(values, mask))
    put("ih", histogram_features(levels, mask, eff_ng))
    put("ivh", ivh_features(values, mask, ivh_bins))

    glcm = glcm_aggregated(levels, mask, eff_ng)
    put("glcm.dir_avg", glcm["dir_avg"])
    put("glcm.dir_merged", glcm["dir_merged"])

    glrlm = glrlm_aggregated(levels, mask, eff_ng, n_voxels)
    for agg in ("dir_avg", "dir_merged"):
        put(f"glrlm.{agg}", {name: glrlm[agg][src] for name, src in GLRLM_MAP.items()})

    glszm, gldzm = zone_matrices(levels, mask, eff_ng)
    szm = row_column_features(glszm, n_voxels)
    put("glszm", {name: szm[src] for name, src in GLSZM_MAP.items()})
    dzm = row_column_features(gldzm, n_voxels)
    put("gldzm", {name: dzm[src] for name, src in GLDZM_MAP.items()})

    put("ngtdm", ngtdm_features(levels, mask, eff_ng))
    ngldm = row_column_features(ngldm_matrix(levels, mask, eff_ng, alpha), n_voxels)
    put("ngldm", {name: ngldm[src] for name, src in NGLDM_MAP.items()})
    return vector
