// want: 5 0 0 0
// error: interp: unknown array "tmp" at 3:42
void peek_tmp(double *out) { out[1] = tmp[0]; }
void caller_array(int n, double *out) {
    double tmp[2];
    tmp[0] = 5;
    out[0] = tmp[0];
    peek_tmp(out);
}
