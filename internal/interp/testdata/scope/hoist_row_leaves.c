// want: 3 13 0 0
// error: interp: array g index 3 out of range [0,3) in dim 0
// The inner loop's row g[i] leaves the array when i reaches 3: the
// stores made before stay in place.
void hoist_row_leaves(int n, double *out) {
    double g[3][4];
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < 4; j++) {
            out[1] = out[1] + 1;
            g[i][j] = i + j;
        }
        out[0] = out[0] + 1;
    }
}
