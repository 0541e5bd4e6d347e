"""Problem containers, scenario clouds, and batch partitioning.

A ProblemDefinition packages the plant dynamics, cost ingredients, constraint
map, bounds, and the uncertainty description.  Scenarios (initial state, model
parameters, exogenous vector) are drawn once, split into equal batches, and
reused verbatim by the tuner so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integration import floats

Array = np.ndarray

FD_STEP = 1.0e-6  # relative step of the central differences


def _as_vector(v, n: int, name: str) -> Array:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != n:
        raise ValueError(f"{name} must have length {n}, got {arr.size}")
    return arr


@dataclass
class ProblemDefinition:
    """Continuous-time control problem with box bounds and uncertainty ranges.

    One rule sets how the callbacks are called.  The value callbacks get x,
    u, p and q as tuples of floats: rhs(x, u, p) -> dx/dt, any length-n_x
    sequence of floats; stage_cost(x, u, p, q) -> float;
    terminal_penalty_base(x, p, q) -> float (scaled by rho_f downstream);
    and constraint_map(x, u, p, q) -> any length-n_c sequence of floats,
    with the convention "admissible iff every component <= 0".  A callback
    that needs arrays calls np.asarray itself.

    The *_jac / *_grad callbacks are optional analytic derivatives; central
    finite differences are used where they are absent.  The derivative
    callbacks get arrays, with points stacked on leading axes: x of shape
    (..., n_x) and u of shape (..., n_u), while p and q are one vector each.
    rhs_jac(x, u, p) -> (A, B) returns A of shape (..., n_x, n_x) and B of
    shape (..., n_x, n_u); stage_cost_grad(x, u, p, q) -> (lx, lu) returns
    shapes (..., n_x) and (..., n_u); constraint_jac(x, u, p, q) -> (Cx, Cu)
    returns shapes (..., n_c, n_x) and (..., n_c, n_u).  The leading axes
    are those of x; a single point has none.  A gradient pass makes one
    call of each on all the points it needs.  terminal_penalty_grad(x, p, q)
    gets one point, as an array, and returns shape (n_x,).

    c_source, optional, is C text defining the eight callbacks the compiled
    solve calls (compiled.py), each for one point, with these signatures
    (arrays of n_x, n_u, n_p, n_q and n_c doubles, the Jacobians row-major:
    A n_x x n_x, B n_x x n_u, Cx n_c x n_x and Cu n_c x n_u; <math.h> is
    included before it):

        void rhs(const double *x, const double *u, const double *p, double *dx);
        double stage_cost(const double *x, const double *u, const double *p, const double *q);
        void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c);
        double terminal_penalty_base(const double *x, const double *p, const double *q);
        void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B);
        void stage_cost_grad(const double *x, const double *u, const double *p, const double *q,
                             double *lx, double *lu);
        void constraint_jac(const double *x, const double *u, const double *p, const double *q,
                            double *Cx, double *Cu);
        void terminal_penalty_grad(const double *x, const double *p, const double *q, double *g);

    They must compute the same floats as their Python callbacks do,
    operation for operation (Python evaluates a + b * c + d as
    (a + (b * c)) + d; math.sin is libm's sin, and so must np.sin be for a
    derivative that calls it; np.dot of two vectors is numpy_ddot(n, x, y),
    which the solve defines before the c_source); constraint_map and
    constraint_jac are still defined, with empty bodies, when n_c is 0.
    The eight are one contract: given all of them, and rhs_jac,
    stage_cost_grad, terminal_penalty_grad and constraint_jac in Python
    too, each solve runs in one compiled call, and so does each cost-model
    closed-loop simulation, its plant, stage costs and constraint values
    included, once a self-check per process has found the Python bytes on
    random solves and closed loops.  A c_source without one of the eight, a
    problem without one of the Python derivative callbacks, or a host
    without a C compiler runs both in Python.
    """

    n_x: int
    n_u: int
    n_p: int
    n_q: int
    n_c: int
    tau: float
    u_min: Array
    u_max: Array
    x_min: Array
    x_max: Array
    q_min: Array
    q_max: Array
    p_nom: Array
    p_std: Array
    rhs: Callable[[tuple, tuple, tuple], Sequence[float]]
    constraint_map: Callable[[tuple, tuple, tuple, tuple], Sequence[float]]
    stage_cost: Callable[[tuple, tuple, tuple, tuple], float]
    terminal_penalty_base: Callable[[tuple, tuple, tuple], float]
    u_trim: Array | None = None
    rhs_jac: Callable[[Array, Array, Array], tuple[Array, Array]] | None = None
    stage_cost_grad: Callable[[Array, Array, Array, Array], tuple[Array, Array]] | None = None
    terminal_penalty_grad: Callable[[Array, Array, Array], Array] | None = None
    constraint_jac: Callable[[Array, Array, Array, Array], tuple[Array, Array]] | None = None
    c_source: str | None = None

    def __post_init__(self) -> None:
        for dim, label in ((self.n_x, "n_x"), (self.n_u, "n_u"), (self.n_p, "n_p"), (self.n_q, "n_q")):
            if dim < 1:
                raise ValueError(f"{label} must be >= 1, got {dim}")
        if self.n_c < 0:
            raise ValueError(f"n_c must be >= 0, got {self.n_c}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        self.u_min = _as_vector(self.u_min, self.n_u, "u_min")
        self.u_max = _as_vector(self.u_max, self.n_u, "u_max")
        self.x_min = _as_vector(self.x_min, self.n_x, "x_min")
        self.x_max = _as_vector(self.x_max, self.n_x, "x_max")
        self.q_min = _as_vector(self.q_min, self.n_q, "q_min")
        self.q_max = _as_vector(self.q_max, self.n_q, "q_max")
        self.p_nom = _as_vector(self.p_nom, self.n_p, "p_nom")
        self.p_std = _as_vector(self.p_std, self.n_p, "p_std")
        for lo, hi, label in (
            (self.u_min, self.u_max, "u"),
            (self.x_min, self.x_max, "x"),
            (self.q_min, self.q_max, "q"),
        ):
            if np.any(lo > hi):
                raise ValueError(f"{label} bounds are not ordered: {lo} !<= {hi}")
        if np.any(self.p_std < 0.0):
            raise ValueError("p_std must be nonnegative")
        if self.u_trim is not None:
            self.u_trim = _as_vector(self.u_trim, self.n_u, "u_trim")

    # derivative access with finite-difference fallback ---------------------

    def rhs_jacobians(self, x: Array, u: Array, p: Array) -> tuple[Array, Array]:
        """d rhs/dx and d rhs/du at (x, u, p), for points stacked on the
        leading axes of x and u as rhs_jac gets them."""
        if self.rhs_jac is not None:
            return self._checked("rhs_jac", self.rhs_jac(x, u, p), x, "n_x, n_x", "n_x, n_u")
        pt = floats(p)
        return self._fd_stacked(lambda xt, ut: self.rhs(xt, ut, pt), x, u, self.n_x)

    def stage_cost_grads(self, x: Array, u: Array, p: Array, q: Array) -> tuple[Array, Array]:
        """d stage_cost/dx and d stage_cost/du, for stacked points as
        stage_cost_grad gets them."""
        if self.stage_cost_grad is not None:
            return self._checked("stage_cost_grad", self.stage_cost_grad(x, u, p, q), x, "n_x", "n_u")
        pt, qt = floats(p), floats(q)
        lx, lu = self._fd_stacked(lambda xt, ut: (self.stage_cost(xt, ut, pt, qt),), x, u, 1)
        return lx[..., 0, :], lu[..., 0, :]

    def terminal_grad(self, x: Array, p: Array, q: Array) -> Array:
        if self.terminal_penalty_grad is not None:
            return self.terminal_penalty_grad(x, p, q)
        pt, qt = floats(p), floats(q)
        return _fd_jacobian(lambda v: (self.terminal_penalty_base(tuple(v.tolist()), pt, qt),), x, 1)[0]

    def constraint_jacobians(self, x: Array, u: Array, p: Array, q: Array) -> tuple[Array, Array]:
        """d constraint_map/dx and d constraint_map/du, for stacked points
        as constraint_jac gets them."""
        if self.constraint_jac is not None:
            return self._checked("constraint_jac", self.constraint_jac(x, u, p, q), x, "n_c, n_x", "n_c, n_u")
        pt, qt = floats(p), floats(q)
        return self._fd_stacked(lambda xt, ut: self.constraint_map(xt, ut, pt, qt), x, u, self.n_c)

    def _checked(self, name: str, pair, x: Array, x_dims: str, u_dims: str) -> tuple[Array, Array]:
        """A derivative callback's (d/dx, d/du) pair, after checking its
        shapes against the stacked contract; x_dims and u_dims name the
        trailing axes, as in "n_c, n_x"."""
        dx, du = pair
        lead = x.shape[:-1]
        # tuple() of a list, not of a generator: CPython resizes a tuple built from a
        # generator and keeps each one freed on its free list, so memory grows per call
        x_tail = tuple([getattr(self, d) for d in x_dims.split(", ")])
        u_tail = tuple([getattr(self, d) for d in u_dims.split(", ")])
        if np.shape(dx) != lead + x_tail or np.shape(du) != lead + u_tail:
            raise ValueError(
                f"{name} returned shapes {np.shape(dx)} and {np.shape(du)} for x of shape {x.shape}: it must "
                f"take points stacked on leading axes and return shapes (..., {x_dims}) and (..., {u_dims}) "
                f"with the same leading axes"
            )
        return dx, du

    def _fd_stacked(
        self, f: Callable[[tuple, tuple], Sequence[float]], x: Array, u: Array, n_out: int
    ) -> tuple[Array, Array]:
        """Central differences of the value callback f(x, u), which takes
        tuples of floats, at every point stacked on the leading axes of x
        and u."""
        lead = x.shape[:-1]
        jx = np.empty(lead + (n_out, self.n_x))
        ju = np.empty(lead + (n_out, self.n_u))
        for i in np.ndindex(lead):
            xi, ui = x[i], u[i]
            xt, ut = tuple(xi.tolist()), tuple(ui.tolist())
            jx[i] = _fd_jacobian(lambda v: f(tuple(v.tolist()), ut), xi, n_out)
            ju[i] = _fd_jacobian(lambda v: f(xt, tuple(v.tolist())), ui, n_out)
        return jx, ju


def _fd_jacobian(f: Callable[[Array], Array], v: Array, n_out: int) -> Array:
    jac = np.empty((n_out, v.size))
    for i in range(v.size):
        h = FD_STEP * max(1.0, abs(v[i]))
        vp = v.copy()
        vm = v.copy()
        vp[i] += h
        vm[i] -= h
        jac[:, i] = (np.asarray(f(vp), dtype=float) - np.asarray(f(vm), dtype=float)) / (2.0 * h)
    return jac


@dataclass(frozen=True)
class Scenario:
    """One certification draw: initial state, model parameters, exogenous vector."""

    x0: Array
    p: Array
    q: Array
    duration: float

    def __post_init__(self) -> None:
        for name in ("x0", "p", "q"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")


@dataclass(frozen=True)
class ScenarioBatchSet:
    """Scenarios split into nb batches of nsb each, in draw order."""

    batches: tuple[tuple[Scenario, ...], ...]

    def __post_init__(self) -> None:
        if not self.batches:
            raise ValueError("batch set must contain at least one batch")
        sizes = {len(b) for b in self.batches}
        if len(sizes) != 1 or 0 in sizes:
            raise ValueError("all batches must be nonempty and the same size")

    @property
    def nb(self) -> int:
        return len(self.batches)

    @property
    def nsb(self) -> int:
        return len(self.batches[0])


def generate_cloud(problem: ProblemDefinition, n: int, seed: int, duration: float = 0.5) -> list[Scenario]:
    """Draw n scenarios: x0 and q uniform in their boxes, p Gaussian around
    p_nom clipped to +-3 sigma.  Degenerate bounds (lo == hi) pin components.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(problem.x_min, problem.x_max, size=(n, problem.n_x))
    qs = rng.uniform(problem.q_min, problem.q_max, size=(n, problem.n_q))
    ps = problem.p_nom + problem.p_std * rng.standard_normal(size=(n, problem.n_p))
    ps = np.clip(ps, problem.p_nom - 3.0 * problem.p_std, problem.p_nom + 3.0 * problem.p_std)
    return [Scenario(x0s[i], ps[i], qs[i], duration) for i in range(n)]


def make_batches(scenarios: list[Scenario], nb: int, nsb: int) -> ScenarioBatchSet:
    """Partition the cloud into nb consecutive batches of nsb scenarios."""
    if nb < 1 or nsb < 1:
        raise ValueError(f"nb and nsb must be >= 1, got nb={nb}, nsb={nsb}")
    if len(scenarios) != nb * nsb:
        raise ValueError(f"need exactly nb*nsb = {nb * nsb} scenarios, got {len(scenarios)}")
    batches = tuple(tuple(scenarios[ell * nsb : (ell + 1) * nsb]) for ell in range(nb))
    return ScenarioBatchSet(batches)


# problem registry ----------------------------------------------------------

_REGISTRY: dict[str, Callable[[], ProblemDefinition]] = {}


def register_problem(name: str, factory: Callable[[], ProblemDefinition]) -> None:
    _REGISTRY[name] = factory


def get_problem(name: str) -> Callable[[], ProblemDefinition]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown problem {name!r}; registered: {known}") from None
