/* one-step model: ring3
 *
 *   x[0] = x1
 *   x[1] = x2
 *   x[2] = x3
 *
 *   k[0] = a_1
 *   k[1] = a_2
 *   k[2] = a_3
 *   k[3] = b_1
 *   k[4] = b_2
 *   k[5] = b_3
 */

void ring3_drift(const double x[], const double k[], double out[]) {
    out[0] = -2*k[0]*x[0]*x[0] + 2*k[2]*x[2]*x[2] + 2*k[3]*x[1]*x[1] - 2*k[5]*x[0]*x[0];
    out[1] = 2*k[0]*x[0]*x[0] - 2*k[1]*x[1]*x[1] - 2*k[3]*x[1]*x[1] + 2*k[4]*x[2]*x[2];
    out[2] = 2*k[1]*x[1]*x[1] - 2*k[2]*x[2]*x[2] - 2*k[4]*x[2]*x[2] + 2*k[5]*x[0]*x[0];
}

void ring3_diffusion(const double x[], const double k[], double out[]) {
    /* out is the 3x3 matrix B, row-major */
    out[0] = 4*k[0]*x[0]*x[0] + 4*k[2]*x[2]*x[2] - 4*k[3]*x[1]*x[1] - 4*k[5]*x[0]*x[0];
    out[1] = -4*k[0]*x[0]*x[0] + 4*k[3]*x[1]*x[1];
    out[2] = -4*k[2]*x[2]*x[2] + 4*k[5]*x[0]*x[0];
    out[3] = -4*k[0]*x[0]*x[0] + 4*k[3]*x[1]*x[1];
    out[4] = 4*k[0]*x[0]*x[0] + 4*k[1]*x[1]*x[1] - 4*k[3]*x[1]*x[1] - 4*k[4]*x[2]*x[2];
    out[5] = -4*k[1]*x[1]*x[1] + 4*k[4]*x[2]*x[2];
    out[6] = -4*k[2]*x[2]*x[2] + 4*k[5]*x[0]*x[0];
    out[7] = -4*k[1]*x[1]*x[1] + 4*k[4]*x[2]*x[2];
    out[8] = 4*k[1]*x[1]*x[1] + 4*k[2]*x[2]*x[2] - 4*k[4]*x[2]*x[2] - 4*k[5]*x[0]*x[0];
}
