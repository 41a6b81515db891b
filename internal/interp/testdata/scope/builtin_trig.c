// want: -0 0.5 -0 -1
// sin, cos and tan at double and int sites, on inputs whose C results
// are exact: sin(±0) = ±0, cos(0) = 1, tan(±0) = ±0.
void builtin_trig(int n, double *out) {
    int k;
    out[0] = sin(-0.0);
    out[1] = cos(n - 7) / 2;
    out[2] = tan(-0.0);
    k = tan(n - 7);
    out[3] = k - cos(0.0) + sin(0.0);
}
