// want: 1 3.5 7 0
void implicit_scalar(int n, double *out) {
    for (int i = 0; i < n; i++) { out[2] = i + 1; }
    k = 3;
    out[0] = k / 2;
    h = k + 0.5;
    out[1] = h;
}
