// want: 0 11 22 3
// The row's subscript is a global that a call in the loop changes.
int g_row;
void bump_row(void) { g_row = g_row + 1; }
void hoist_global_call(int n, double *out) {
    double g[4][3];
    int i, j;
    for (i = 0; i < 4; i++) { for (j = 0; j < 3; j++) { g[i][j] = 10 * i + j; } }
    g_row = 0;
    for (j = 0; j < 3; j++) {
        out[j] = g[g_row][j];
        bump_row();
    }
    out[3] = g_row;
}
