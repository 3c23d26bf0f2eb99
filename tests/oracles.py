"""Independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed: explicit loops, textbook
formulas, library one-liners (np.interp), and a long-run primal-dual solver
for the convex objective. None of it shares code paths with dsr itself,
except ``iterate_ref``, which runs the package's extraction, prox and
scatter on the whole table to check the solver loop around them.
"""

from __future__ import annotations

import numpy as np

from dsr.patches import extract_blocks, scatter_sum
from dsr.shrinkage import prox_low_rank


# ---------------------------------------------------------------- matching

def grid_positions_naive(extent: int, patch: int, stride: int) -> list[int]:
    pos = list(range(0, extent - patch + 1, stride))
    if pos[-1] != extent - patch:
        pos.append(extent - patch)
    return pos


def match_groups_naive(guide_frames: np.ndarray, patch: int, stride: int,
                       window: tuple[int, int, int], group_size: int):
    """Brute-force block matching. Returns per-reference member lists of
    (x, y, t) with the reference first, plus a padded flag."""
    n_t, height, width = guide_frames.shape
    wx, wy, wt = window
    half_x, half_y, half_t = wx // 2, wy // 2, (wt - 1) // 2
    groups = []
    for t in range(n_t):
        for y in grid_positions_naive(height, patch, stride):
            for x in grid_positions_naive(width, patch, stride):
                ref_patch = guide_frames[t, y:y + patch, x:x + patch]
                cands = []
                for u in range(max(0, t - half_t), min(n_t - 1, t + half_t) + 1):
                    for cy in range(max(0, y - half_y),
                                    min(height - patch, y + half_y) + 1):
                        for cx in range(max(0, x - half_x),
                                        min(width - patch, x + half_x) + 1):
                            if (cx, cy, u) == (x, y, t):
                                continue
                            d = float(np.sum(
                                (guide_frames[u, cy:cy + patch, cx:cx + patch]
                                 - ref_patch) ** 2))
                            cands.append((d, u, cy, cx))
                cands.sort()
                members = [(x, y, t)] + [(cx, cy, u) for _, u, cy, cx
                                         in cands[:group_size - 1]]
                padded = len(members) < group_size
                while len(members) < group_size:
                    members.append((x, y, t))
                groups.append((members, padded))
    return groups


# ------------------------------------------------------- patch extraction

def extract_naive(frames: np.ndarray, members, patch: int) -> np.ndarray:
    """(patch*patch, len(members)) block column by column."""
    block = np.empty((patch * patch, len(members)))
    for j, (x, y, t) in enumerate(members):
        block[:, j] = frames[t, y:y + patch, x:x + patch].reshape(-1)
    return block


def scatter_naive(blocks, groups, patch: int, frames_shape) -> np.ndarray:
    """Adjoint of extraction: accumulate every block entry back onto the grid."""
    acc = np.zeros(frames_shape)
    for block, members in zip(blocks, groups):
        for j, (x, y, t) in enumerate(members):
            acc[t, y:y + patch, x:x + patch] += block[:, j].reshape(patch, patch)
    return acc


def counts_naive(groups, patch: int, frames_shape) -> np.ndarray:
    ones = [np.ones((patch * patch, len(m))) for m, _ in groups]
    return scatter_naive(ones, [m for m, _ in groups], patch, frames_shape)


# ----------------------------------------------------------- interpolation

def bilinear_naive(low: np.ndarray, factor: int, width: int, height: int) -> np.ndarray:
    """Separable 1-D interpolation with np.interp (replicates edges)."""
    ys = np.arange(low.shape[0]) * factor
    xs = np.arange(low.shape[1]) * factor
    tmp = np.empty((low.shape[0], width))
    for r in range(low.shape[0]):
        tmp[r] = np.interp(np.arange(width), xs, low[r])
    out = np.empty((height, width))
    for c in range(width):
        out[:, c] = np.interp(np.arange(height), ys, tmp[:, c])
    return out


def nearest_fill_naive(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Nearest measured pixel per missing pixel; scan order breaks ties."""
    height, width = frame.shape
    measured = [(y, x) for y in range(height) for x in range(width) if mask[y, x]]
    out = frame.copy()
    for y in range(height):
        for x in range(width):
            if mask[y, x]:
                continue
            best, best_d = None, None
            for my, mx in measured:
                d = (my - y) ** 2 + (mx - x) ** 2
                if best_d is None or d < best_d:
                    best, best_d = (my, mx), d
            out[y, x] = frame[best]
    return out


# --------------------------------------------------------------- shrinkage

def soft_threshold_ref(y, lam: float):
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def shrink_values_ref(s, lam: float, nu: float) -> np.ndarray:
    """The nu shrinkage of nonnegative values: s - lam*s**(nu-1) above
    lam**(1/(2-nu)), zero at or below it."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    keep = s > lam ** (1.0 / (2.0 - nu))
    out[keep] = s[keep] - lam * s[keep] ** (nu - 1.0)
    return out


def prox_low_rank_ref(mat: np.ndarray, lam: float, nu: float) -> np.ndarray:
    """Shrink the singular values from a full SVD and recompose; accepts a
    stack of matrices."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return (u * shrink_values_ref(s, lam, nu)[..., None, :]) @ vh


def prox_nuclear_ref(mat: np.ndarray, lam: float) -> np.ndarray:
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return u @ np.diag(soft_threshold_ref(s, lam)) @ vh


# ------------------------------------------------------------ solver steps

def phi_step_dense(occ: np.ndarray, counts: np.ndarray, ht_psi: np.ndarray,
                   bt_z: np.ndarray, rho: float) -> np.ndarray:
    """Solve (diag(occ) + rho*diag(counts)) x = ht_psi + rho*bt_z densely."""
    system = np.diag(occ.astype(float) + rho * counts.astype(float))
    return np.linalg.solve(system, ht_psi + rho * bt_z)


def objective_nuclear_naive(frames: np.ndarray, psi_values: np.ndarray,
                            meas_indices: np.ndarray, groups, patch: int,
                            lam: float) -> float:
    flat = frames.reshape(-1)
    resid = psi_values - flat[meas_indices]
    total = 0.5 * float(resid @ resid)
    for members, _ in groups:
        block = extract_naive(frames, members, patch)
        total += lam * float(np.linalg.svd(block, compute_uv=False).sum())
    return total


def iterate_ref(psi, table, cfg, init: np.ndarray) -> tuple[np.ndarray, list]:
    """The paper's two update rules on the whole group table at once, from
    the initial volume ``init``: no chunks, no workspace, no buffer reused.

    Simplified (gds3d, gds2d, ds3d): shrink every block of the iterate with
    weight lam, average the blocks back by reference count, then
    phi = (H^T psi + rho * average) / (occupancy + rho).
    ADMM (admm3d): blocks Z start as extractions of ``init`` and the dual U
    at zero; phi = (H^T psi + rho * B^T (Z + U / rho)) / (occupancy + rho *
    counts), then Z = prox(B phi - U / rho) with weight lam / rho and
    U += rho * (Z - B phi). Both stop as the package does: after
    ``cfg.max_iter`` iterations, or from the second on when the relative
    change of phi is within ``cfg.tol``. Returns the estimate and one
    (rel_change, primal_residual) pair per iteration; the residual is None
    for the simplified rule.
    """
    def relative(a, b):
        change, scale = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        return change / scale if scale > 0 else change

    rho, n = cfg.rho, table.dims.total_voxels
    occ, ht_psi = np.zeros(n), np.zeros(n)
    occ[psi.operator.indices] = 1.0
    ht_psi[psi.operator.indices] = psi.values
    counts = scatter_sum(np.ones(table.gather_indices().shape), table)
    admm = cfg.algo == "admm3d"
    phi = init.copy()
    if admm:
        feedback = scatter_sum(extract_blocks(phi, table), table)
        dual = np.zeros(table.gather_indices().shape)
    trace = []
    for k in range(cfg.max_iter):
        if admm:
            new = (ht_psi + rho * feedback) / (occ + rho * counts)
            b_phi = extract_blocks(new, table)
            z = prox_low_rank(b_phi - dual / rho, cfg.lam / rho, cfg.nu)
            dual = dual + rho * (z - b_phi)
            feedback = scatter_sum(z + dual / rho, table)
            trace.append((relative(new - phi, phi), relative(z - b_phi, b_phi)))
        else:
            shrunk = prox_low_rank(extract_blocks(phi, table), cfg.lam, cfg.nu)
            new = (ht_psi + rho * (scatter_sum(shrunk, table) / counts)) / (occ + rho)
            trace.append((relative(new - phi, phi), None))
        phi = new
        if k >= 1 and trace[-1][0] <= cfg.tol:
            break
    return phi, trace


# --------------------------------------- convex oracle via primal-dual

def nuclear_objective_oracle(psi_values: np.ndarray, meas_indices: np.ndarray,
                             gather_idx: np.ndarray, counts: np.ndarray,
                             n_voxels: int, lam: float, n_iter: int,
                             ) -> tuple[np.ndarray, float]:
    """Chambolle-Pock on 0.5*||psi - H phi||^2 + lam * sum_p ||B_p phi||_*.

    The block operator's norm is sqrt(max coverage count) because its normal
    matrix is diagonal. Returns the primal iterate and its objective value.
    """
    occ = np.zeros(n_voxels)
    occ[meas_indices] = 1.0
    ht_psi = np.zeros(n_voxels)
    ht_psi[meas_indices] = psi_values

    step = 0.9 / np.sqrt(float(counts.max()))
    tau = sigma = step
    phi = np.zeros(n_voxels)
    phi_bar = phi.copy()
    dual = np.zeros(gather_idx.shape)

    for _ in range(n_iter):
        arg = dual + sigma * phi_bar[gather_idx]
        u, s, vh = np.linalg.svd(arg, full_matrices=False)
        dual = (u * np.minimum(s, lam)[..., None, :]) @ vh
        bt_dual = np.bincount(gather_idx.reshape(-1), weights=dual.reshape(-1),
                              minlength=n_voxels)
        new_phi = (phi - tau * bt_dual + tau * ht_psi) / (1.0 + tau * occ)
        phi_bar = 2.0 * new_phi - phi
        phi = new_phi

    blocks = phi[gather_idx]
    sv = np.linalg.svd(blocks, compute_uv=False)
    resid = psi_values - phi[meas_indices]
    objective = 0.5 * float(resid @ resid) + lam * float(sv.sum())
    return phi, objective


# ------------------------------------------------------------ nearest fill

def mask_fill_ref(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Brute-force nearest fill of a (T, H, W) boolean mask.

    ``values`` holds the measured values in flat scan order. Every missing
    pixel is compared with every measured pixel of its frame, 4096 missing
    pixels at a time; ``np.argmin`` keeps the first minimum, so ties go to
    the smallest scan index. Returns the filled (T, H, W) array.
    """
    chunk = 4096
    n_t, height, width = mask.shape
    n = height * width
    flat_mask = mask.reshape(n_t, n)
    out = np.zeros((n_t, n))
    out.reshape(-1)[np.flatnonzero(flat_mask)] = values
    for k in range(n_t):
        meas_idx = np.flatnonzero(flat_mask[k])
        if meas_idx.size == 0:
            raise ValueError(f"frame {k} has no measurements to fill from")
        miss_idx = np.flatnonzero(~flat_mask[k])
        mx = (meas_idx % width).astype(np.float64)
        my = (meas_idx // width).astype(np.float64)
        vals = out[k, meas_idx]
        for lo in range(0, miss_idx.size, chunk):
            part = miss_idx[lo:lo + chunk]
            px = (part % width).astype(np.float64)
            py = (part // width).astype(np.float64)
            d2 = (px[:, None] - mx[None, :]) ** 2 + (py[:, None] - my[None, :]) ** 2
            out[k, part] = vals[np.argmin(d2, axis=1)]
    return out.reshape(n_t, height, width)
