/* The gradient pass of a problem that gives its derivative callbacks in C,
 * as compiled.python_grad_pass computes it, in one call: every term of the
 * gradient but the terminal one, summed, and the sensitivity S = dx/dz at
 * the end of the horizon.
 *
 * compiled.py compiles sensitivity.c, then this file with the problem's
 * c_source put in place of the marker line below: first the includes and
 * the three prototypes the c_source must define, then the c_source, then
 * the driver.  The recurrence is sensitivity.c's step, each input block B
 * added to its own columns only (the Python pass pads them with -0.0,
 * which leaves every float unchanged).  A vector times S calls the CBLAS
 * routine numpy's matmul calls for it, with numpy's arguments: dgemv, or
 * dot added to 0.0 when S is one column, and numpy's loop without BLAS
 * when S is one row.  The terms are summed in python_grad_pass's order
 * from +0.0.  Built with -ffp-contract=off and -fno-builtin, as
 * costpass.c is.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B);
void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu);
void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu);

/* @c_source@ */

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
