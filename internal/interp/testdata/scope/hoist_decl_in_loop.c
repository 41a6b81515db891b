// want: 6 9 3 0
// The loop declares t, so every trip indexes a new array; the inner
// loop indexes the one its trip of the outer loop declared.
void hoist_decl_in_loop(int n, double *out) {
    int i, j;
    for (i = 0; i < 3; i++) {
        double t[2][3];
        t[1][i] = i + 1;
        out[0] = out[0] + t[1][i];
        for (j = 0; j < 3; j++) { t[0][j] = j + i; }
        out[1] = out[1] + t[0][2];
    }
    out[2] = i;
}
