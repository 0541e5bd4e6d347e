/* The compiled solve: controller._descend, the projected-gradient descent
 * with Armijo backtracking, in one call, for a problem that gives its eight
 * callbacks in C, with the bytes of the Python descent.
 *
 * compiled.py compiles sensitivity.c, then this file with the problem's
 * c_source put in place of the marker line below: first the includes, the
 * eight prototypes the c_source must define and numpy_ddot, which it may
 * call, then the c_source, then the passes and the driver.  Built with
 * -ffp-contract=off, no multiply and add is fused into one rounding, and
 * with -fno-builtin, sin, cos and sqrt stay the libm calls Python's math
 * module makes.
 *
 * Every RK4 step of the cost pass follows integration.rk4_kernel's
 * operations in order, and the stage cost, the penalty and the finiteness
 * test follow compiled.python_pass; the terminal penalty is added as
 * controller._cost_pass adds it.  The gradient pass sums the terms of
 * python_grad_pass in its order from +0.0, then the terminal term, as
 * controller._grad_pass adds it.  Its recurrence is sensitivity.c's step,
 * each input block B added to its own columns only (the Python pass pads
 * them with -0.0, which leaves every float unchanged).  A vector times S
 * calls the CBLAS routine numpy's matmul calls for it, with numpy's
 * arguments: dgemv, or dot added to 0.0 when S is one column, and numpy's
 * loop without BLAS when S is one row.  The descent follows _descend step
 * by step: np.clip's rule (max, then min, NaN first), np.max of |.| (NaN
 * first), and the Armijo test's grad @ d through numpy_ddot.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

void rhs(const double *x, const double *u, const double *p, double *dx);
double stage_cost(const double *x, const double *u, const double *p, const double *q);
void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c);
double terminal_penalty_base(const double *x, const double *p, const double *q);
void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B);
void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu);
void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu);
void terminal_penalty_grad(const double *x, const double *p, const double *q, double *g);

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);
static ddot_fn blas_ddot; /* numpy's, set by solve */

/* np.dot(x, y), as x @ y, of two vectors of n doubles: numpy adds the BLAS
 * dot to 0.0 */
static double numpy_ddot(int64_t n, const double *x, const double *y)
{
    return 0.0 + blas_ddot(n, x, 1, y, 1);
}

/* @c_source@ */

/* One solve's problem: its sizes, its design and its p and q. */
typedef struct {
    int64_t n_x, n_u, n_c, n_pred, n_contr, n_steps, n_z;
    double h, tau_u, rho_constr, rho_f;
    const double *p, *q;
    void *gemm, *gemv, *axpy;
} ocp;

/* One RK4 step from the state x, writing the stage states and the result
 * (x2, x3, x4, x_next) into the next 4 * n doubles; k holds 4 * n. */
static void rk4_step(int64_t n, const double *u, const double *p, double h, double *x, double *k)
{
    const double half = 0.5 * h;
    double *k1 = k, *k2 = k + n, *k3 = k + 2 * n, *k4 = k + 3 * n;
    double *x2 = x + n, *x3 = x + 2 * n, *x4 = x + 3 * n, *x_next = x + 4 * n;
    rhs(x, u, p, k1);
    for (int64_t i = 0; i < n; i++)
        x2[i] = k1[i] * half + x[i];
    rhs(x2, u, p, k2);
    for (int64_t i = 0; i < n; i++)
        x3[i] = k2[i] * half + x[i];
    rhs(x3, u, p, k3);
    for (int64_t i = 0; i < n; i++)
        x4[i] = k3[i] * h + x[i];
    rhs(x4, u, p, k4);
    const double h6 = h / 6.0;
    for (int64_t i = 0; i < n; i++)
        x_next[i] = (((k2[i] * 2.0 + k1[i]) + k3[i] * 2.0) + k4[i]) * h6 + x[i];
}

/* The objective at z from the state in the first row of x, as
 * controller._cost_pass computes it, inf on divergence; the RK steps spent
 * are added to *steps.  x gets the pass's states after the first row
 * (4 * n_pred * n_steps rows of n_x) and mask its active constraints
 * (n_pred x n_c), both filled up to the period the pass stopped at. */
static double objective(const ocp *o, const double *z, double *x, int8_t *mask, int64_t *steps)
{
    const int64_t n_x = o->n_x, n_c = o->n_c;
    double k[4 * n_x], c[n_c > 0 ? n_c : 1];
    double cost = 0.0;
    memset(mask, 0, o->n_pred * n_c);
    for (int64_t j = 0; j < o->n_pred; j++, mask += n_c) {
        const double *u = z + (j < o->n_contr ? j : o->n_contr - 1) * o->n_u; /* the tail reuses the last block */
        cost += stage_cost(x, u, o->p, o->q) * o->tau_u;
        for (int64_t s = 0; s < o->n_steps; s++, x += 4 * n_x)
            rk4_step(n_x, u, o->p, o->h, x, k);
        *steps += o->n_steps;
        if (n_c) {
            double penalty = 0.0;
            constraint_map(x, u, o->p, o->q, c);
            for (int64_t i = 0; i < n_c; i++)
                if (!(c[i] <= 0.0)) { /* a NaN counts too */
                    penalty += c[i];
                    mask[i] = 1;
                }
            cost += o->rho_constr * penalty * o->tau_u;
        }
        if (!isfinite(cost))
            return INFINITY;
    }
    cost += o->rho_f * terminal_penalty_base(x, o->p, o->q);
    int finite = isfinite(cost);
    for (int64_t i = 0; i < n_x; i++)
        finite = finite && isfinite(x[i]);
    return finite ? cost : INFINITY;
}

/* grad += scale * (v @ S), v of n_x and S n_x x n_z; prod holds n_z doubles */
static void add_product(const ocp *o, double scale, const double *v, const double *S, double *prod, double *grad)
{
    const int64_t nx = o->n_x, nz = o->n_z;
    if (nz == 1) {
        prod[0] = numpy_ddot(nx, v, S);
    } else if (nx == 1) {
        for (int64_t c = 0; c < nz; c++)
            prod[c] = 0.0 + v[0] * S[c];
    } else {
        memset(prod, 0, nz * sizeof *prod);
        ((dgemv_fn)o->gemv)(ROW_MAJOR, TRANS, nx, nz, 1.0, S, nz, v, 1, 0.0, prod, 1);
    }
    for (int64_t c = 0; c < nz; c++)
        grad[c] += scale * prod[c];
}

/* The gradient at z, as controller._grad_pass computes it, from the states
 * and the mask of a finite objective at z. */
static void gradient(const ocp *o, const double *z, const double *states, const int8_t *mask, double *grad)
{
    const int64_t n_x = o->n_x, n_u = o->n_u, n_c = o->n_c, n_z = o->n_z, a = n_x * n_x, b = n_x * n_u;
    const double *p = o->p, *q = o->q;
    double S[n_x * n_z], A[4 * a], B[4 * b], work[5 * n_x * n_z], prod[n_z], lx[n_x], lu[n_u];
    double Cx[n_c > 0 ? n_c * n_x : 1], Cu[n_c > 0 ? n_c * n_u : 1];
    const double scale = o->rho_constr * o->tau_u;
    memset(grad, 0, n_z * sizeof *grad);
    memset(S, 0, n_x * n_z * sizeof *S);
    for (int64_t j = 0; j < o->n_pred; j++, mask += n_c) {
        const int64_t col = (j < o->n_contr ? j : o->n_contr - 1) * n_u; /* the tail reuses the last block */
        const double *u = z + col;
        stage_cost_grad(states, u, p, q, lx, lu);
        add_product(o, o->tau_u, lx, S, prod, grad);
        for (int64_t c = 0; c < n_u; c++)
            grad[col + c] += o->tau_u * lu[c];
        for (int64_t s = 0; s < o->n_steps; s++, states += 4 * n_x) {
            for (int64_t i = 0; i < 4; i++)
                rhs_jac(states + i * n_x, u, p, A + i * a, B + i * b);
            sensitivity_step(o->gemm, o->gemv, o->axpy, n_x, n_z, o->h, A, B, n_u, col, S, work);
        }
        int64_t active = 0;
        for (int64_t i = 0; i < n_c; i++)
            active |= mask[i];
        if (!active)
            continue;
        constraint_jac(states, u, p, q, Cx, Cu);
        for (int64_t i = 0; i < n_c; i++)
            if (mask[i]) {
                add_product(o, scale, Cx + i * n_x, S, prod, grad);
                for (int64_t c = 0; c < n_u; c++)
                    grad[col + c] += scale * Cu[i * n_u + c];
            }
    }
    terminal_penalty_grad(states, p, q, lx); /* states is at the final state */
    add_product(o, o->rho_f, lx, S, prod, grad);
}

/* np.clip(v, lo, hi): np.maximum's rule, then np.minimum's, a NaN first */
static double clip(double v, double lo, double hi)
{
    v = isnan(v) || v > lo ? v : lo;
    return isnan(v) || v < hi ? v : hi;
}

/* np.max(np.abs(v)) of n > 0 doubles, NaN if one is */
static double max_abs(int64_t n, const double *v)
{
    double m = fabs(v[0]);
    for (int64_t i = 1; i < n && !isnan(m); i++)
        if (!(fabs(v[i]) <= m))
            m = fabs(v[i]);
    return m;
}

/* The budget test of controller.solve on work stage evaluations; it never
 * holds for a NaN budget. */
static int over_budget(double c_eval, double budget, int64_t work)
{
    return (c_eval * (double)work) / budget - 1.0 > 0.0;
}

/* controller._descend, with its constants (armijo_slope, g_tol, shrink,
 * max_backtracks and the work per RK step) and, unless budget is NaN, the
 * budget test of controller.solve.  buf holds, in this order: x (n_x),
 * p (n_p), q (n_q), z, z_lo and z_hi (n_contr * n_u each) as given, then
 * gets z_opt and the cost; counts gets the iterations, the RK steps (-1 if
 * the memory for the states could not be had) and whether the descent
 * diverged. */
void solve(void *gemm, void *gemv, void *axpy, void *dot, double armijo_slope, double g_tol, double shrink,
           int64_t max_backtracks, int64_t work_per_step, int64_t n_x, int64_t n_u, int64_t n_p, int64_t n_q,
           int64_t n_c, int64_t n_pred, int64_t n_contr, int64_t n_steps, int64_t max_iter, double h, double tau_u,
           double rho_constr, double rho_f, double c_eval, double budget, double *buf, int64_t *counts)
{
    const int64_t n_z = n_contr * n_u, rows = 4 * n_pred * n_steps + 1;
    const double *x0 = buf, *z0 = buf + n_x + n_p + n_q, *lo = z0 + n_z, *hi = lo + n_z;
    double *z_opt = buf + n_x + n_p + n_q + 3 * n_z, *cost_out = z_opt + n_z;
    const ocp o = {n_x, n_u, n_c, n_pred, n_contr, n_steps, n_z, h, tau_u, rho_constr, rho_f, x0 + n_x,
                   x0 + n_x + n_p, gemm, gemv, axpy};
    /* the states and the mask of the current iterate and of the trial point */
    double *const memory = malloc(2 * rows * n_x * sizeof *memory + 2 * n_pred * n_c), *states = memory;
    counts[0] = counts[2] = 0;
    counts[1] = -1;
    if (!memory)
        return;
    double *try_states = states + rows * n_x;
    int8_t *mask = (int8_t *)(try_states + rows * n_x), *try_mask = mask + n_pred * n_c;
    double z_a[n_z], z_b[n_z], grad[n_z], d[n_z], *z = z_a, *z_try = z_b;
    int64_t steps = 0, iterations = 0, stepped = 0;
    blas_ddot = (ddot_fn)dot;
    memcpy(states, x0, n_x * sizeof *states);
    memcpy(try_states, x0, n_x * sizeof *states);
    memcpy(z, z0, n_z * sizeof *z);
    memcpy(z_opt, z0, n_z * sizeof *z);
    double cost = objective(&o, z, states, mask, &steps), best = cost, span = 0.0, step_size = 0.0;
    if (!isfinite(cost)) {
        counts[2] = 1;
        goto done;
    }
    for (int64_t i = 0; i < n_z; i++)
        d[i] = hi[i] - lo[i];
    span = max_abs(n_z, d); /* np.max(z_hi - z_lo), of floats >= 0 */
    for (int64_t it = 0; it < max_iter; it++) {
        if (over_budget(c_eval, budget, work_per_step * steps))
            goto done;
        /* states always describes the trajectory of the current iterate z */
        gradient(&o, z, states, mask, grad);
        steps += n_pred * n_steps;
        int finite = 1;
        for (int64_t i = 0; i < n_z; i++)
            finite = finite && isfinite(grad[i]);
        if (!finite)
            break;
        for (int64_t i = 0; i < n_z; i++)
            d[i] = z[i] - clip(z[i] - grad[i], lo[i], hi[i]);
        if (max_abs(n_z, d) <= g_tol)
            break;
        iterations++;

        double s, cost_try = 0.0;
        if (!stepped) {
            const double gmax = max_abs(n_z, grad);
            s = gmax > 0.0 ? span / gmax : 1.0;
        } else {
            s = 2.0 * step_size;
        }
        int accepted = 0;
        for (int64_t k = 0; k < max_backtracks; k++) {
            if (over_budget(c_eval, budget, work_per_step * steps))
                goto done;
            for (int64_t i = 0; i < n_z; i++) {
                z_try[i] = clip(z[i] - s * grad[i], lo[i], hi[i]);
                d[i] = z_try[i] - z[i];
            }
            if (max_abs(n_z, d) == 0.0)
                break;
            cost_try = objective(&o, z_try, try_states, try_mask, &steps);
            if (isfinite(cost_try) && cost_try <= cost + armijo_slope * numpy_ddot(n_z, grad, d)) {
                accepted = 1;
                break;
            }
            s *= shrink;
        }
        if (!accepted)
            break; /* same iterate would fail the same search again */

        double *swap = z;
        z = z_try, z_try = swap;
        swap = states, states = try_states, try_states = swap;
        int8_t *swap_mask = mask;
        mask = try_mask, try_mask = swap_mask;
        cost = cost_try, step_size = s, stepped = 1;
        if (cost < best) {
            best = cost;
            memcpy(z_opt, z, n_z * sizeof *z);
        }
    }
done:
    free(memory);
    *cost_out = best;
    counts[0] = iterations;
    counts[1] = steps;
}
