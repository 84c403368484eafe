/* one-step model: lotka_volterra
 *
 *   x[0] = x
 *   x[1] = y
 *
 *   k[0] = k_1
 *   k[1] = k_2
 *   k[2] = k_3
 */

void lotka_volterra_drift(const double x[], const double k[], double out[]) {
    out[0] = k[0]*x[0] - k[1]*x[0]*x[1];
    out[1] = k[1]*x[0]*x[1] - k[2]*x[1];
}

void lotka_volterra_diffusion(const double x[], const double k[], double out[]) {
    /* out is the 2x2 matrix B, row-major */
    out[0] = k[0]*x[0] + k[1]*x[0]*x[1];
    out[1] = -k[1]*x[0]*x[1];
    out[2] = -k[1]*x[0]*x[1];
    out[3] = k[1]*x[0]*x[1] + k[2]*x[1];
}
