// want: 4 4 0 0
// A bound that reads a scalar the body changes: C tests it after every
// iteration, so the loop stops at i = 4 with m = 4.
void writes_ub(int n, double *out) {
    int i, m;
    m = 0;
    for (i = 0; i < 8 - m; i++) { m = m + 1; }
    out[0] = m;
    out[1] = i;
}
