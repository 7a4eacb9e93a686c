/* Compiled plane-wave field summation: the hot loop of the Monte-Carlo
 * estimators.  Same contract as _kernels_numpy.field_sum, in the
 * single-cosine form 2 Re[a e^{i phi}] = 2|a| cos(phi + arg a); the caller
 * passes amp2 = 2|a| and theta = arg a.  kvec is (3, N): one contiguous row
 * per component, so the loop over waves reads unit-stride memory.
 *
 * Built by kernels.py with -fopenmp-simd -fno-math-errno and linked against
 * glibc's libmvec: the declaration below lets the compiler call its vector
 * cos, and the two clones pick the AVX2 or the SSE2 variant at load time.
 */
#include <stddef.h>

#pragma omp declare simd notinbranch
double cos(double);

__attribute__((target_clones("avx2", "default")))
void field_sum(ptrdiff_t n_events, ptrdiff_t n_waves, const double *t, const double *xyz,
               const double *kvec, const double *omega, const double *amp2,
               const double *theta, int half_space, double *out)
{
    const double *kx = kvec, *ky = kvec + n_waves, *kz = kvec + 2 * n_waves;
    for (ptrdiff_t e = 0; e < n_events; e++) {
        const double x = xyz[3 * e], y = xyz[3 * e + 1], z = xyz[3 * e + 2], te = t[e];
        double acc = 0.0;
        if (half_space) {
            /* the image point flips z, so the image phase is ph - 2 z k_z */
#pragma omp simd reduction(+:acc)
            for (ptrdiff_t j = 0; j < n_waves; j++) {
                const double ph = kx[j] * x + ky[j] * y + kz[j] * z - omega[j] * te + theta[j];
                acc += amp2[j] * (cos(ph) - cos(ph - 2.0 * z * kz[j]));
            }
        } else {
#pragma omp simd reduction(+:acc)
            for (ptrdiff_t j = 0; j < n_waves; j++) {
                const double ph = kx[j] * x + ky[j] * y + kz[j] * z - omega[j] * te + theta[j];
                acc += amp2[j] * cos(ph);
            }
        }
        out[e] = acc;
    }
}
