"""Quadratic right-hand-side operator: the structure both models share.

Every model here has the form

    F(x) = L x + sum_t (G_t x) (.) (H_t x)

with sparse L, G_t, H_t ((.) is the entrywise product).  That single form
provides, generically and exactly:

* the sparse Jacobian  J(x) = L + sum_t [diag(G_t x) H_t + diag(H_t x) G_t],
  assembled as the pattern's CSC matrix of `jacobian_values(x)`: the values
  come in column-major pattern order, which is CSC order, so they are the
  matrix's data as they stand,
* O(stencil) evaluation of Jacobian entries without assembling J, through
  sampling plans: `jacobian_values` restricted offline to a fixed
  coordinate list, whose sample mesh is the state entries that the
  referenced factor rows read,
* a time-invariant structural sparsity pattern,
* the ingredients for exact reduced-space precomputation of the projected
  residual and Jacobian.

The structural pattern is fixed once from the operator graphs (not from
values at some state), so entries that happen to vanish numerically at a
given state are still stored and the pattern never changes along a
trajectory.

Full-space evaluation works on the support rows of each pair: the rows
where both G_t and H_t have entries.  On any other row (G_t x)(.)(H_t x)
is an exact zero for finite x, so only the support rows of the factors are
stored, stacked as one CSR, and one sparse product with it serves `rhs`,
`nonlinear_term` and `jacobian_values` for a state vector and for a block
of states alike.  Each pair's product is added in place on its support
rows, in pair order, which gives the bits of the per-pair loop over all
rows.  In the shallow water operators every support is one third of the
rows; in Burgers it is every row.

`jacobian_values` is one map M applied to [1; factor products], and a
sampling plan keeps only the rows of M and of the stacked factors that its
coordinates need, so sampled and assembled entries come from one formula.
"""

import numpy as np
import scipy.sparse

from .. import instrumentation
from ..snapshots import SparsityPattern

__all__ = ["QuadraticOperator", "SamplingPlan"]


def _as_sorted_csr(mat):
    out = scipy.sparse.csr_matrix(mat, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.sort_indices()
    return out


def _structural_linear_indexes(mat, row_mask=None):
    # linear column-major indexes of stored entries, optionally masked by row
    coo = mat.tocoo()
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    if row_mask is not None:
        keep = row_mask[rows]
        rows, cols = rows[keep], cols[keep]
    return cols * np.int64(mat.shape[0]) + rows


def _reject_outside(n, rows, cols=None):
    # sample indexes must lie in [0, n); name the first one that does not
    bad = (rows < 0) | (rows >= n)
    if cols is not None:
        bad |= (cols < 0) | (cols >= n)
    if bad.any():
        q = int(np.argmax(bad))
        what = f"row {rows[q]}" if cols is None else f"coordinate ({rows[q]}, {cols[q]})"
        raise ValueError(f"sample {what} at position {q} lies outside [0, {n})")


# the constant the linear column of the values map multiplies
_ONE = np.ones(1)


def _row_entries(indptr, rows, keep=True):
    # indptr and storage positions of the entries of the given CSR rows, in
    # order; a row where keep is False comes out empty
    starts = indptr[rows].astype(np.int64)
    counts = np.where(keep, indptr[rows + 1] - starts, 0)
    out = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    pos = np.arange(out[-1], dtype=np.int64) + np.repeat(starts - out[:-1], counts)
    return out, pos


class PaddedRows:
    """The rows of a CSR matrix as a (width, rows) layout, for products
    vectorized over the rows.

    Slot w of row i holds the row's w-th stored entry in storage order; the
    slots past a row's end hold the value 0 and read index 0.  `dot(x)`
    sums val[w, i] * x[idx[w, i]] over w from zero, looping over the width:
    the order in which a CSR product sums a row, so it gives the same bits.
    """

    def __init__(self, indptr, indices, data):
        counts = np.diff(indptr)
        offs = np.arange(int(counts.max(initial=0)), dtype=np.int64)[:, None]
        # a padded slot takes the entry one past the last: an appended 0
        pos = np.where(offs < counts, indptr[:-1] + offs, indptr[-1])
        self.val = np.append(np.asarray(data, dtype=np.float64), 0.0)[pos]
        self.idx = np.append(indices, 0)[pos]

    def dot(self, x):
        prod = self.val * x[self.idx]
        out = np.zeros(prod.shape[1:], dtype=np.float64)
        for term in prod:
            out += term
        return out


class SamplingPlan:
    """`jacobian_values` restricted to m fixed coordinates.

    Built offline by `QuadraticOperator.sampling_plan` and `nl_row_plan`.
    `jacobian_values(x)` is M @ [1; F x], M the operator's values map and F
    its stacked factor rows.  The plan keeps the rows of M at the pattern
    positions of its coordinates (an empty row for a coordinate off the
    pattern, and without the linear column when the linear part is left
    out), the rows of F those rows reference, and the sample mesh: the
    sorted state entries those factor rows read.

    `apply(x[mesh])` computes the same two products on these rows, each row
    summed from zero in storage order, so sampled entries equal assembled
    ones bit for bit and its cost does not depend on n.  `flops` is the
    accounted cost of one application: m times the operator's fixed
    per-entry charge.
    """

    def __init__(self, op, rows, cols, linear=True):
        self.rows = rows
        self.cols = cols
        values = op._values_map
        pos = op.pattern.positions_of(rows, cols)
        indptr, ent = _row_entries(values.indptr, pos, pos >= 0)
        if not linear:
            # column 0 holds the linear part
            kept = values.indices[ent] > 0
            indptr = np.concatenate(([0], np.cumsum(kept)))[indptr]
            ent = ent[kept]
        # referenced factor rows, renumbered after the constant 1 at 0
        used, local = np.unique(np.append(values.indices[ent], 0), return_inverse=True)
        self._value_rows = PaddedRows(indptr, local[:-1], values.data[ent])
        f_indptr, f_ent = _row_entries(op._factors.indptr, used[1:] - 1)
        read = op._factors.indices[f_ent]
        self.mesh = np.unique(read)
        self._factor_rows = PaddedRows(
            f_indptr, np.searchsorted(self.mesh, read), op._factors.data[f_ent]
        )
        self.flops = rows.size * op._sample_charge

    @property
    def m(self):
        return int(self.rows.size)

    def apply(self, x_mesh):
        """Jacobian values at the plan's coordinates from x restricted to mesh."""
        products = self._factor_rows.dot(x_mesh)
        return self._value_rows.dot(np.concatenate((_ONE, products)))


class QuadraticOperator:
    """F(x) = linear @ x + sum over pairs of (G x) (.) (H x)."""

    def __init__(self, linear, pairs):
        self.linear = _as_sorted_csr(linear)
        n = self.linear.shape[0]
        if self.linear.shape != (n, n):
            raise ValueError("linear part must be square")
        self.pairs = []
        for g, h in pairs:
            g = _as_sorted_csr(g)
            h = _as_sorted_csr(h)
            if g.shape != (n, n) or h.shape != (n, n):
                raise ValueError("pair factors must match the operator dimension")
            self.pairs.append((g, h))
        self.n = n

        # support rows of each pair: where both G_t and H_t have entries
        supports = [
            (np.diff(g.indptr) > 0) & (np.diff(h.indptr) > 0) for g, h in self.pairs
        ]
        nl_lin = []
        for (g, h), mask in zip(self.pairs, supports):
            nl_lin.append(_structural_linear_indexes(h, row_mask=mask))
            nl_lin.append(_structural_linear_indexes(g, row_mask=mask))
        nl_union = (
            np.unique(np.concatenate(nl_lin)) if nl_lin else np.empty(0, np.int64)
        )
        full_union = np.union1d(nl_union, _structural_linear_indexes(self.linear))
        self.pattern = SparsityPattern(
            n=n, rows=full_union % n, cols=full_union // n
        )
        self.nl_pattern = SparsityPattern(n=n, rows=nl_union % n, cols=nl_union // n)

        # the support rows of the factors stacked as [G_1[S_1]; H_1[S_1];
        # G_2[S_2]; ...], S_t the support of pair t, so one sparse product
        # gives every factor product on its support; each row keeps its
        # entries in the factor's own storage order, so the products are
        # bit-identical to the separate full ones.  _support[t] holds S_t (a
        # slice when contiguous) and the slices of G_t S_t and H_t S_t in the
        # stacked product.
        self._support = []
        blocks = []
        offset = 0
        for (g, h), mask in zip(self.pairs, supports):
            rows = np.flatnonzero(mask)
            size = rows.size
            if size and rows[-1] - rows[0] == size - 1:
                rows = slice(int(rows[0]), int(rows[-1]) + 1)
            self._support.append(
                (rows, slice(offset, offset + size),
                 slice(offset + size, offset + 2 * size))
            )
            blocks += [g[rows], h[rows]]
            offset += 2 * size
        if blocks:
            self._factors = scipy.sparse.vstack(blocks, format="csr")
        else:
            self._factors = scipy.sparse.csr_matrix((0, n), dtype=np.float64)
        self._values_map = self._jacobian_values_map()
        # fixed per-entry sampling charge: the stencil-width bound, so the
        # accounted cost of m samples depends on m and the operator alone,
        # never on where the samples land in the grid
        self._sample_charge = sum(
            int(np.diff(g.indptr).max(initial=0))
            + int(np.diff(h.indptr).max(initial=0))
            + 2
            for g, h in self.pairs
        )
        # row-major layout of the nonlinear pattern, for row sampling
        rows_form = self.nl_pattern.matrix(np.zeros(self.nl_pattern.r)).tocsr()
        self._nl_indices, self._nl_indptr = rows_form.indices, rows_form.indptr

    # -- full-space evaluation -------------------------------------------

    def _plus_products(self, out, x):
        # out += (G_1 x)(.)(H_1 x), then pair 2, ..., each on its support rows
        # only, for a state vector or an (n, c) block; out is the caller's own
        # array.  Off the support a product is +-0.0, and out never holds
        # -0.0 (sparse products start their sums from +0.0), so adding it
        # there would change no bit.
        prods = self._factors @ x
        for rows, g_rows, h_rows in self._support:
            out[rows] += prods[g_rows] * prods[h_rows]
        return out

    def rhs(self, x):
        """F(x) for a state vector x, or column by column for an (n, c) block."""
        return self._plus_products(self.linear @ x, x)

    def nonlinear_term(self, x):
        """F(x) - L x, for a state vector or an (n, c) block."""
        return self._plus_products(np.zeros(x.shape, dtype=np.float64), x)

    def jacobian_values(self, x):
        """Jacobian entries at the pattern coordinates (column-major order).

        For an (n, c) block of states, column j of the (r, c) result holds
        the entries at x[:, j], bit for bit the vector call's.
        """
        ones = np.ones((1,) + x.shape[1:], dtype=np.float64)
        return self._values_map @ np.concatenate((ones, self._factors @ x))

    def _jacobian_values_map(self):
        # CSR M with jacobian_values(x) = M @ [1; _factors @ x]: row p holds
        # L[a, b] against the 1, then for each pair H_t[a, b] against
        # (G_t x)[a] and G_t[a, b] against (H_t x)[a], (a, b) being
        # coordinate p and a a support row of pair t.  A CSR row is summed
        # from zero in column order, which is the order of the terms of
        # J = L + sum_t diag(G_t x) H_t + diag(H_t x) G_t; the terms left out
        # are zeros for finite x.  A factor entry off its pair's support
        # multiplies an exact zero, so it is left out even where L or another
        # pair puts its coordinate on the pattern.
        coo = self.linear.tocoo()
        rows = [self.pattern.positions_of(coo.row, coo.col)]
        cols = [np.zeros(coo.nnz, dtype=np.int64)]
        vals = [coo.data]
        all_rows = np.arange(self.n)
        for (g, h), (support, g_rows, h_rows) in zip(self.pairs, self._support):
            for factor, partner in ((h, g_rows), (g, h_rows)):
                coo = factor[support].tocoo()
                a = all_rows[support][coo.row]
                rows.append(self.pattern.positions_of(a, coo.col))
                cols.append(1 + partner.start + coo.row.astype(np.int64))
                vals.append(coo.data)
        return _as_sorted_csr(
            scipy.sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(self.pattern.r, 1 + self._factors.shape[0]),
            )
        )

    def jacobian(self, x):
        """Assembled sparse Jacobian with the fixed structural pattern, as
        the pattern's CSC matrix of `jacobian_values(x)`."""
        return self.pattern.matrix(self.jacobian_values(x))

    # -- pointwise sampling (independent of n) ----------------------------

    def sampling_plan(self, rows, cols):
        """Offline plan for Jacobian values at the coordinates (rows, cols).

        Raises ValueError if any coordinate lies outside [0, n).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        rows = rows.ravel()
        cols = cols.ravel()
        _reject_outside(self.n, rows, cols)
        return SamplingPlan(self, rows, cols)

    def nl_row_plan(self, row_ids):
        """Plan over the nonlinear-pattern entries of the given rows.

        Returns (plan, indptr): the plan's coordinates run through the rows
        in order, each row's columns sorted, and indptr delimits the rows.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        _reject_outside(self.n, row_ids)
        indptr, pos = _row_entries(self._nl_indptr, row_ids)
        rows = np.repeat(row_ids, np.diff(indptr))
        cols = self._nl_indices[pos].astype(np.int64)
        return SamplingPlan(self, rows, cols, linear=False), indptr

    def sample_jacobian(self, x, rows, cols):
        """Jacobian values at arbitrary coordinates without assembling J.

        Cost per entry is bounded by the operator stencil width; coordinates
        outside the structural pattern evaluate to 0.  Agrees bit for bit
        with `jacobian_values` on pattern coordinates.
        """
        plan = self.sampling_plan(rows, cols)
        out = plan.apply(x[plan.mesh])
        instrumentation.bump("sample_flops", plan.flops)
        return out

    def sample_nl_rows(self, x, row_ids):
        """Rows of the nonlinear-part Jacobian as a (len(row_ids), n) CSR.

        Cost per row is bounded by the stencil width of the requested rows.
        """
        plan, indptr = self.nl_row_plan(row_ids)
        return scipy.sparse.csr_matrix(
            (plan.apply(x[plan.mesh]), plan.cols, indptr),
            shape=(indptr.size - 1, self.n),
        )

    # -- reduced-space precomputation --------------------------------------

    def reduced_quadratic_tensor(self, u):
        """Tensor q with q[j, l, p] = sum_t sum_s u[s,j] (H_t u)[s,l] (G_t u)[s,p].

        Contracting q with reduced coordinates gives the exact projected
        quadratic term: residual_j = xt^T q[j] xt and Jacobian term
        sum_p xt_p (q[j,l,p] + q[j,p,l]).

        Each slice q[j] takes one (k, n) @ (n, k) BLAS product per pair
        (G_t, H_t): O(n k^3) work in all, with O(n k) scratch.
        """
        k = u.shape[1]
        tensor = np.zeros((k, k, k), dtype=np.float64)
        for g, h in self.pairs:
            gu = np.asarray(g @ u)
            hu = np.asarray(h @ u)
            for j in range(k):
                tensor[j] += (u[:, j, None] * hu).T @ gu
        return tensor

    def reduced_linear(self, u, mean):
        """U^T J(mean) U for the state-independent Jacobian part.

        With a zero mean this is just the projected linear part; a nonzero
        mean adds the quadratic derivative frozen at the mean.
        """
        return u.T @ (self.jacobian(mean) @ u)
