// want: 2.5 7 0 0
void param_shadow(int n, double *out) {
    { double n; n = 2.5; out[0] = n; }
    out[1] = n;
}
