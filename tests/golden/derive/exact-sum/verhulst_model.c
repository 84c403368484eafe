/* one-step model: verhulst
 *
 *   x[0] = phi
 *
 *   k[0] = lambda
 *   k[1] = beta
 *   k[2] = gamma
 */

void verhulst_drift(const double x[], const double k[], double out[]) {
    out[0] = k[0]*x[0] - k[1]*x[0] + k[2]*x[0] - k[2]*x[0]*x[0];
}

void verhulst_diffusion(const double x[], const double k[], double out[]) {
    /* out is the 1x1 matrix B, row-major */
    out[0] = k[0]*x[0] + k[1]*x[0] - k[2]*x[0] + k[2]*x[0]*x[0];
}
