// want: 1 2 3 3
// A subscript and a bound that read a name the loop writes ahead of
// one it does not: neither holds one value for the loop.
void hoist_written_first(int n, double *out) {
    double g[2][9];
    int i, k, m;
    m = 3;
    for (k = 0; k < 3; k++) { g[1][k * m] = k + 1; }
    out[0] = g[1][0];
    out[1] = g[1][3];
    out[2] = g[1][6];
    m = 12;
    for (i = 0; i < m - n; i++) { m = m - 1; }
    out[3] = i;
}
