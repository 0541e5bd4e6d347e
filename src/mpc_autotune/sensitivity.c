/* The forward-sensitivity recurrence of a gradient pass, as
 * compiled.numpy_recurrence computes it, in one call.
 *
 * Every product goes through the CBLAS entry point numpy's A.dot(T) reaches
 * for these shapes, passed in as a function pointer with the arguments numpy
 * passes: dgemm, dgemv when T is one column, and numpy's scalar rule when
 * n_x = 1 (daxpy into zeros, or one multiplication when T is 1 x 1).  The
 * elementwise steps follow the numpy expressions in the same order; built
 * with -ffp-contract=off, no multiply and add is fused into one rounding.
 * BLAS integers are 64 bits wide (an ILP64 build).  passes.c is compiled
 * after this file and runs its recurrence through sensitivity_step.
 */
#include <stdint.h>
#include <string.h>

typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double, const double *, int64_t,
                         const double *, int64_t, double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);
typedef void (*daxpy_fn)(int64_t, double, const double *, int64_t, double *, int64_t);

enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

/* K = A.dot(T), then K += B, where B (nx x nb) covers K's columns col to
 * col + nb - 1; the other columns are left as they are, as adding -0.0
 * leaves them */
static void stage(void *gemm, void *gemv, void *axpy, int64_t nx, int64_t nz, const double *A, const double *T,
                  const double *B, int64_t nb, int64_t col, double *K)
{
    memset(K, 0, nx * nz * sizeof *K); /* numpy zeroes its result before the BLAS call */
    if (nx == 1 && nz == 1)
        K[0] = A[0] * T[0];
    else if (nx == 1)
        ((daxpy_fn)axpy)(nz, A[0], T, 1, K, 1);
    else if (nz == 1)
        ((dgemv_fn)gemv)(ROW_MAJOR, NO_TRANS, nx, nx, 1.0, A, nx, T, 1, 0.0, K, 1);
    else
        ((dgemm_fn)gemm)(ROW_MAJOR, NO_TRANS, NO_TRANS, nx, nz, nx, 1.0, A, nx, T, nz, 0.0, K, nz);
    for (int64_t r = 0; r < nx; r++)
        for (int64_t c = 0; c < nb; c++)
            K[r * nz + col + c] += B[r * nb + c];
}

/* S through one RK4 step: A holds the step's 4 stage Jacobians (nx x nx)
 * and B their 4 input blocks (nx x nb, on S's columns col on); work holds
 * 5 * nx * nz doubles. */
static void sensitivity_step(void *gemm, void *gemv, void *axpy, int64_t nx, int64_t nz, double h, const double *A,
                             const double *B, int64_t nb, int64_t col, double *S, double *work)
{
    const int64_t n = nx * nz, a = nx * nx, b = nx * nb;
    const double half = 0.5 * h, h6 = h / 6.0;
    double *K1 = work, *K2 = work + n, *K3 = work + 2 * n, *K4 = work + 3 * n, *T = work + 4 * n;
    stage(gemm, gemv, axpy, nx, nz, A, S, B, nb, col, K1);
    for (int64_t i = 0; i < n; i++)
        T[i] = K1[i] * half + S[i];
    stage(gemm, gemv, axpy, nx, nz, A + a, T, B + b, nb, col, K2);
    for (int64_t i = 0; i < n; i++)
        T[i] = K2[i] * half + S[i];
    stage(gemm, gemv, axpy, nx, nz, A + 2 * a, T, B + 2 * b, nb, col, K3);
    for (int64_t i = 0; i < n; i++)
        T[i] = K3[i] * h + S[i];
    stage(gemm, gemv, axpy, nx, nz, A + 3 * a, T, B + 3 * b, nb, col, K4);
    for (int64_t i = 0; i < n; i++)
        S[i] += ((K2[i] + K3[i]) * 2.0 + (K1[i] + K4[i])) * h6;
}

/* A holds 4 * n_pred * n_steps stage Jacobians (n_x x n_x) and B as many
 * (n_x x n_z) input blocks; S_at (n_pred + 1 blocks, the first zero) gets S
 * at every period boundary.  work holds 5 * n_x * n_z doubles. */
void sensitivity_pass(void *gemm, void *gemv, void *axpy, int64_t n_pred, int64_t n_steps, int64_t nx,
                      int64_t nz, double h, const double *A, const double *B, double *S_at, double *work)
{
    const int64_t n = nx * nz;
    for (int64_t j = 1; j <= n_pred; j++) {
        double *S = S_at + j * n;
        memcpy(S, S - n, n * sizeof *S);
        for (int64_t k = 0; k < n_steps; k++, A += 4 * nx * nx, B += 4 * n)
            sensitivity_step(gemm, gemv, axpy, nx, nz, h, A, B, nz, 0, S, work);
    }
}
