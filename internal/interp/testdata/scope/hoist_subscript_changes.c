// want: 0 11 22 3
// The body changes the row's subscript m after reading g[m][j].
void hoist_subscript_changes(int n, double *out) {
    double g[4][3];
    int j, m;
    for (m = 0; m < 4; m++) { for (j = 0; j < 3; j++) { g[m][j] = 10 * m + j; } }
    m = 0;
    for (j = 0; j < 3; j++) {
        out[j] = g[m][j];
        m = j + 1;
    }
    out[3] = m;
}
