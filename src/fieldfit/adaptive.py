"""Residual-driven fit/mark/enrich loop on a single subdomain.

Each round fits the log-data by Elastic Net on Shepard-normalized features
at the cell centroids, scores every cell by the midpoint-rule residual of
the fit at its centroid, marks the worst cells, and inserts narrower bases
near their centroids.  The fit points are the centroids, so a round reads
the reconstruction there off its own design, exp(W beta), without
evaluating the surrogate.  The loop stops on a residual tolerance, a budget
of added bases, an empty mark or enrichment step, or a round cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .elastic_net import ElasticNetConfig, fit_log_field
from .fields import SubdomainField, l2_misfit_parts
from .io import write_text
from .rbf import LocalSurrogate, RbfDictionary, shepard_features

# new-center offsets per marked cell, in units of the cell size
DEFAULT_OFFSETS_1D = ((-0.25,), (0.25,), (0.0,))
DEFAULT_OFFSETS_2D = ((-0.5, 0.0), (0.5, 0.0), (0.0, 0.5))

# two entries are duplicates when centers and widths agree to this tolerance
DUPLICATE_TOL = 1e-12


@dataclass(frozen=True)
class AdaptiveConfig:
    """Controls for the enrichment loop.

    ``m_max`` bounds the number of *added* bases; 0 gives a plain one-shot
    fit.  ``eps_tol`` is an absolute bound on the worst cell residual
    (field-units^2 times area) and defaults to 0, i.e. disabled, so runs
    stop on the basis budget or on empty marks.  ``offsets`` overrides the
    per-dimension default new-center pattern; entries are in units of the
    cell size and the tuple length must equal ``m_q``.
    """

    k_top: int = 1
    m_max: int = 0
    eps_tol: float = 0.0
    eta: float = 0.5
    m_q: int = 3
    max_rounds: int = 50
    elastic: ElasticNetConfig = field(default_factory=ElasticNetConfig)
    offsets: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.k_top < 1:
            raise ValueError(f"k_top must be >= 1, got {self.k_top}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.m_q < 1:
            raise ValueError(f"m_q must be >= 1, got {self.m_q}")
        if self.m_max < 0:
            raise ValueError(f"m_max must be >= 0, got {self.m_max}")
        if not 0 <= self.eps_tol < math.inf:
            raise ValueError(f"eps_tol must be finite and >= 0, got {self.eps_tol}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.offsets is not None and len(self.offsets) != self.m_q:
            raise ValueError(
                f"offsets has {len(self.offsets)} entries but m_q={self.m_q}"
            )
        if self.offsets is not None and not all(
            math.isfinite(v) for offset in self.offsets for v in offset
        ):
            raise ValueError(f"offsets must be finite, got {self.offsets}")

    def offsets_for_dim(self, dim: int) -> tuple[tuple[float, ...], ...]:
        if self.offsets is not None:
            return self.offsets
        if self.m_q != 3:
            raise ValueError("default offsets exist only for m_q=3; pass offsets explicitly")
        return DEFAULT_OFFSETS_1D if dim == 1 else DEFAULT_OFFSETS_2D


@dataclass(frozen=True)
class RoundReport:
    """Per-round fitting record.

    ``centers`` is the dictionary size used by this round's fit and
    ``added`` the number of bases appended before it, so both the
    total-count and added-count readings of a refinement history are
    available.  ``max_residual`` is the largest cell residual and
    ``rel_l2``/``abs_l2`` are the midpoint-rule misfits against the cell
    data, all taken from the fitted expansion at the centroids.
    ``iterations`` and ``converged`` are the Elastic Net solver's (see
    :class:`~fieldfit.elastic_net.FitResult`).  ``seconds`` is wall time and
    is the only non-reproducible field.
    """

    round: int
    centers: int
    added: int
    max_residual: float
    rel_l2: float
    abs_l2: float
    objective: float
    iterations: int
    converged: bool
    seconds: float


REPORT_CSV_COLUMNS = ("round", "centers", "max_RT", "rel_L2", "objective", "seconds")


def report_csv_row(r: RoundReport) -> str:
    """One report as a CSV row in ``REPORT_CSV_COLUMNS`` order."""
    return (
        f"{r.round},{r.centers},{r.max_residual:.17g},{r.rel_l2:.17g},"
        f"{r.objective:.17g},{r.seconds:.6f}"
    )


def reports_to_csv(reports, sink, provenance: str | None = None) -> None:
    """Write round reports as CSV; timing stays isolated in its own column."""
    write_text(
        sink, [",".join(REPORT_CSV_COLUMNS), *(report_csv_row(r) for r in reports)], provenance
    )


def residual_indicators(approx, sub: SubdomainField) -> np.ndarray:
    """Midpoint-rule residual |T| (K*(x_T) - K_T)^2 of every cell.

    ``approx`` holds the reconstruction K* at the cell centroids x_T in
    field units, i.e. after any log-transform is undone, so a cell's
    indicator vanishes exactly when the reconstruction matches its value
    at the centroid.
    """
    return sub.cell_measure * (np.asarray(approx, dtype=float) - sub.values) ** 2


def mark(indicators, k_top: int) -> np.ndarray:
    """Indices of the k_top worst cells, by residual then by cell index.

    Cells with zero residual are never marked, so the result may be shorter
    than ``k_top``; an empty result signals the caller to stop refining.
    """
    r = np.asarray(indicators, dtype=float)
    if k_top > r.shape[0]:
        raise ValueError(f"k_top={k_top} exceeds cell count {r.shape[0]}")
    order = np.lexsort((np.arange(r.shape[0]), -r))
    order = order[r[order] > 0.0]
    return order[:k_top]


def enrich(dictionary: RbfDictionary, marked, sub: SubdomainField, eta: float, offsets):
    """New (center, width) entries for the marked cells.

    Each marked cell contributes one center per entry of ``offsets`` (in
    units of the cell size, see :meth:`AdaptiveConfig.offsets_for_dim`) from
    its centroid, clamped into the subdomain box, with width eta times the
    width of the nearest existing entry.  Equidistant entries resolve to
    the narrowest, then the oldest, so that a cell marked again keeps
    spawning strictly finer bases instead of duplicates of the last round.
    Candidates that duplicate an existing dictionary entry are dropped; an
    empty result signals the caller to stop refining.
    """
    marked = np.asarray(marked, dtype=int)
    if marked.size == 0:
        raise ValueError("marked cell set must not be empty")
    dim = sub.centroids.shape[1]
    offsets = np.asarray(offsets, dtype=float)
    scale = np.asarray(sub.cell_size, dtype=float)

    cells = sub.centroids[marked]
    # squared distances to the entries ordered by (width, index), so the
    # first minimum of a row is the narrowest, then oldest, nearest entry
    order = np.argsort(dictionary.widths, kind="stable")
    d2 = np.zeros((cells.shape[0], order.shape[0]))
    for k in range(dim):
        d2 += np.subtract.outer(cells[:, k], dictionary.centers[order, k]) ** 2
    widths = eta * dictionary.widths[order[np.argmin(d2, axis=1)]]
    # candidates in marked-cell order, offsets within a cell in order
    centers = sub.box.clamp(cells[:, None, :] + offsets[None, :, :] * scale).reshape(-1, dim)
    widths = np.repeat(widths, offsets.shape[0])
    # compared with the existing entries only, never within the batch
    same = np.abs(widths[:, None] - dictionary.widths[None, :]) <= DUPLICATE_TOL
    for k in range(dim):
        same &= np.abs(centers[:, k, None] - dictionary.centers[None, :, k]) <= DUPLICATE_TOL
    fresh = ~np.any(same, axis=1)
    return centers[fresh], widths[fresh]


def fit_adaptive(
    sub: SubdomainField,
    initial: RbfDictionary,
    config: AdaptiveConfig,
) -> tuple[LocalSurrogate, list[RoundReport]]:
    """Run the enrichment loop and return the fitted surrogate plus history.

    Every report corresponds to a completed fit; the dictionary is only ever
    extended after a fit, so the returned surrogate always carries fitted
    coefficients for all of its entries.
    """
    dictionary = initial
    beta = np.zeros(len(dictionary))
    added_total = 0
    reports: list[RoundReport] = []
    surrogate = None

    for rnd in range(config.max_rounds):
        t0 = time.perf_counter()
        W = shepard_features(sub.centroids, dictionary)
        result = fit_log_field(sub.values, W, config.elastic, beta0=beta)
        beta = result.beta
        surrogate = LocalSurrogate(dictionary=dictionary, beta=beta, log_transform=True)

        # the fit points are the centroids, so W beta is the fitted log-field there
        approx = np.exp(W @ beta)
        residuals = residual_indicators(approx, sub)
        num, den = l2_misfit_parts(sub, approx)
        reports.append(
            RoundReport(
                round=rnd,
                centers=len(dictionary),
                added=added_total,
                max_residual=float(residuals.max()),
                rel_l2=float(np.sqrt(num / den)),
                abs_l2=float(np.sqrt(num)),
                objective=result.objective,
                iterations=result.iterations,
                converged=result.converged,
                seconds=time.perf_counter() - t0,
            )
        )

        if float(residuals.max()) < config.eps_tol:
            break
        if added_total >= config.m_max:
            break
        if rnd == config.max_rounds - 1:
            break
        marked = mark(residuals, min(config.k_top, sub.n_cells))
        if marked.size == 0:
            break
        centers, widths = enrich(
            dictionary, marked, sub, config.eta, config.offsets_for_dim(sub.centroids.shape[1])
        )
        # the last batch is cut to the remaining budget, in candidate order
        budget = config.m_max - added_total
        centers, widths = centers[:budget], widths[:budget]
        if centers.shape[0] == 0:
            break
        dictionary = dictionary.extended(centers, widths, generation=rnd + 1)
        beta = np.concatenate([beta, np.zeros(centers.shape[0])])
        added_total += centers.shape[0]

    return surrogate, reports
