// want: 5 4 6 44
// A <= bound: invariant (n - 3), invariant with a nested offset
// (n - 1 - 1), and one the body lowers (m - 1).
void bound_le(int n, double *out) {
    int i, m, c;
    c = 0;
    for (i = 0; i <= n - 3; i++) { c = c + 1; }
    out[0] = c;
    out[1] = i - 1;
    c = 0;
    for (i = 0; i <= n - 1 - 1; i = i + 2) { c = c + i; }
    out[2] = c;
    m = 8;
    c = 0;
    for (i = 0; i <= m - 1; i++) { m = m - 1; c = c + 1; }
    out[3] = c * 10 + m;
}
