/* The cost pass and the gradient pass of a problem that gives its six
 * callbacks in C, as compiled.python_pass and compiled.python_grad_pass
 * compute them, in one call each.
 *
 * compiled.py compiles sensitivity.c, then this file with the problem's
 * c_source put in place of the marker line below: first the includes and
 * the six prototypes the c_source must define, then the c_source, then the
 * drivers.  Built with -ffp-contract=off, no multiply and add is fused into
 * one rounding, and with -fno-builtin, sin and cos stay the two libm calls
 * Python's math module makes.
 *
 * Every RK4 step of the cost pass follows integration.rk4_kernel's
 * operations in order, and the stage cost, the penalty and the finiteness
 * test follow python_pass.  The gradient pass returns every term of the
 * gradient but the terminal one, summed, and the sensitivity S = dx/dz at
 * the end of the horizon.  Its recurrence is sensitivity.c's step, each
 * input block B added to its own columns only (the Python pass pads them
 * with -0.0, which leaves every float unchanged).  A vector times S calls
 * the CBLAS routine numpy's matmul calls for it, with numpy's arguments:
 * dgemv, or dot added to 0.0 when S is one column, and numpy's loop without
 * BLAS when S is one row.  The terms are summed in python_grad_pass's order
 * from +0.0.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void rhs(const double *x, const double *u, const double *p, double *dx);
double stage_cost(const double *x, const double *u, const double *p, const double *q);
void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c);
void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B);
void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu);
void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu);

/* @c_source@ */

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

/* buf holds, in this order: x (n_x), p (n_p), q (n_q) and z (n_contr * n_u)
 * as given, then the cost, then the states (4 * n_pred * n_steps + 1 rows
 * of n_x), then the mask of active constraints (n_pred * n_c bytes).  The
 * cost before the terminal penalty is written, inf on divergence, and the
 * RK steps spent are returned; the states and the mask are filled up to
 * the period the pass stopped at. */
int64_t cost_pass(int64_t n_x, int64_t n_u, int64_t n_p, int64_t n_q, int64_t n_c, int64_t n_pred,
                  int64_t n_contr, int64_t n_steps, double h, double tau_u, double rho_constr, double *buf)
{
    const double *p = buf + n_x, *q = p + n_p, *z = q + n_q;
    double *cost_out = buf + n_x + n_p + n_q + n_contr * n_u;
    double *x = cost_out + 1;
    int8_t *mask = (int8_t *)(x + (4 * n_pred * n_steps + 1) * n_x);
    double k[4 * n_x], c[n_c > 0 ? n_c : 1];
    double cost = 0.0;
    int64_t steps = 0;
    memcpy(x, buf, n_x * sizeof *x);
    memset(mask, 0, n_pred * n_c);
    for (int64_t j = 0; j < n_pred; j++) {
        const double *u = z + (j < n_contr ? j : n_contr - 1) * n_u; /* the tail reuses the last block */
        cost += stage_cost(x, u, p, q) * tau_u;
        for (int64_t s = 0; s < n_steps; s++, x += 4 * n_x)
            rk4_step(n_x, u, p, h, x, k);
        steps += n_steps;
        if (n_c) {
            double penalty = 0.0;
            constraint_map(x, u, p, q, c);
            for (int64_t i = 0; i < n_c; i++)
                if (!(c[i] <= 0.0)) { /* a NaN counts too */
                    penalty += c[i];
                    mask[j * n_c + i] = 1;
                }
            cost += rho_constr * penalty * tau_u;
        }
        if (!isfinite(cost)) {
            cost = INFINITY;
            break;
        }
    }
    *cost_out = cost;
    return steps;
}

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);

/* grad += scale * (v @ S), v of nx and S nx x nz; prod holds nz doubles */
static void add_product(void *gemv, void *dot, int64_t nx, int64_t nz, double scale, const double *v,
                        const double *S, double *prod, double *grad)
{
    if (nz == 1) {
        prod[0] = 0.0 + ((ddot_fn)dot)(nx, v, 1, S, 1);
    } else if (nx == 1) {
        for (int64_t c = 0; c < nz; c++)
            prod[c] = 0.0 + v[0] * S[c];
    } else {
        memset(prod, 0, nz * sizeof *prod);
        ((dgemv_fn)gemv)(ROW_MAJOR, TRANS, nx, nz, 1.0, S, nz, v, 1, 0.0, prod, 1);
    }
    for (int64_t c = 0; c < nz; c++)
        grad[c] += scale * prod[c];
}

/* states and mask are a finite cost pass's record (4 * n_pred * n_steps + 1
 * rows of n_x; n_pred x n_c bytes), and given holds p (n_p), q (n_q) and z
 * (n_contr * n_u).  out gets the sum of the terms (n_z), then S
 * (n_x x n_z). */
void grad_pass(void *gemm, void *gemv, void *axpy, void *dot, int64_t n_x, int64_t n_u, int64_t n_p, int64_t n_q,
               int64_t n_c, int64_t n_pred, int64_t n_contr, int64_t n_steps, double h, double tau_u,
               double rho_constr, const double *states, const int8_t *mask, const double *given, double *out)
{
    const int64_t n_z = n_contr * n_u, a = n_x * n_x, b = n_x * n_u;
    const double *p = given, *q = p + n_p, *z = q + n_q;
    double *grad = out, *S = out + n_z;
    double A[4 * a], B[4 * b], work[5 * n_x * n_z], prod[n_z], lx[n_x], lu[n_u];
    double Cx[n_c > 0 ? n_c * n_x : 1], Cu[n_c > 0 ? n_c * n_u : 1];
    const double scale = rho_constr * tau_u;
    memset(grad, 0, (n_x + 1) * n_z * sizeof *grad);
    for (int64_t j = 0; j < n_pred; j++, mask += n_c) {
        const int64_t col = (j < n_contr ? j : n_contr - 1) * n_u; /* the tail reuses the last block */
        const double *u = z + col;
        stage_cost_grad(states, u, p, q, lx, lu);
        add_product(gemv, dot, n_x, n_z, tau_u, lx, S, prod, grad);
        for (int64_t c = 0; c < n_u; c++)
            grad[col + c] += tau_u * lu[c];
        for (int64_t s = 0; s < n_steps; s++, states += 4 * n_x) {
            for (int64_t i = 0; i < 4; i++)
                rhs_jac(states + i * n_x, u, p, A + i * a, B + i * b);
            sensitivity_step(gemm, gemv, axpy, n_x, n_z, h, A, B, n_u, col, S, work);
        }
        int64_t active = 0;
        for (int64_t i = 0; i < n_c; i++)
            active |= mask[i];
        if (!active)
            continue;
        constraint_jac(states, u, p, q, Cx, Cu);
        for (int64_t i = 0; i < n_c; i++)
            if (mask[i]) {
                add_product(gemv, dot, n_x, n_z, scale, Cx + i * n_x, S, prod, grad);
                for (int64_t c = 0; c < n_u; c++)
                    grad[col + c] += scale * Cu[i * n_u + c];
            }
    }
}
