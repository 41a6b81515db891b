// want: 1 0 0 0
// A loop that runs no trip reads and writes rows out of range: nothing
// evaluates them, so nothing fails.
void hoist_zero_trip(int n, double *out) {
    double g[3][4];
    double h[2][3][4];
    int j;
    g[0][0] = 1;
    for (j = 0; j < n - 7; j++) {
        g[n][j] = 2;
        out[1] = g[n + 1][j] + h[1][n][j];
    }
    out[0] = g[0][0];
}
