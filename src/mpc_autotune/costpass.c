/* The cost pass of a problem that gives its value callbacks in C, as
 * compiled.python_pass computes it, in one call.
 *
 * compiled.py compiles this file with the problem's c_source put in place
 * of the marker line below: first the includes and the three prototypes
 * the c_source must define, then the c_source, then the driver.  Every RK4
 * step follows integration.rk4_kernel's operations in order, and the
 * stage cost, the penalty and the finiteness test follow python_pass;
 * built with -ffp-contract=off, no multiply and add is fused into one
 * rounding, and with -fno-builtin, sin and cos stay the two libm calls
 * Python's math module makes.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void rhs(const double *x, const double *u, const double *p, double *dx);
double stage_cost(const double *x, const double *u, const double *p, const double *q);
void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c);

/* @c_source@ */

/* One RK4 step from the state x, writing the stage states and the result
 * (x2, x3, x4, x_next) into the next 4 * n doubles; k holds 4 * n. */
static void costpass_step(int64_t n, const double *u, const double *p, double h, double *x, double *k)
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
            costpass_step(n_x, u, p, h, x, k);
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
