// want: 12 21 123 11
// 2-D and 3-D subscripts with constant offsets in every dimension,
// nested (2 - 1 + 1) and literal-only (1 + 2) ones included.
void offset_nd(int n, double *out) {
    double g[3][4];
    double h[2][3][4];
    int i, j, k;
    for (i = 0; i < 3; i++) {
        for (j = 0; j < 4; j++) {
            g[i][j] = 10 * i + j;
        }
    }
    for (i = 0; i < 2; i++) {
        for (j = 0; j < 2; j++) {
            for (k = 0; k < 3; k++) {
                h[i][j + 1][k + 1] = 100 * i + g[j + 1][k + 1];
            }
        }
    }
    out[0] = g[1][1 + 1];
    out[1] = g[n - 5][n - 6];
    out[2] = h[1][2 - 1 + 1][1 + 2];
    out[3] = h[0][0 + 1][0 + 1];
}
