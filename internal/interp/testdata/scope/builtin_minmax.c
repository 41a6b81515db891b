// want: -0 -0 -2 2
// fmin and fmax keep the sign of a negative zero they return; at an int
// site the result truncates toward zero.
void builtin_minmax(int n, double *out) {
    int k;
    out[0] = fmin(-0.0, 1.0);
    out[1] = fmax(-0.0, -1.0);
    k = fmin(-2.5, n);
    out[2] = k;
    k = fmax(2.5, -n);
    out[3] = k;
}
