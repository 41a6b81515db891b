// want: 1 2 0 0
// error: interp: unknown array "ghost" at 11:73
// No declaration binds ghost: the loop that runs no trip never reads
// it, the one that runs fails at its first read.
void hoist_unknown_nested(int n, double *out) {
    int i, j;
    out[0] = 1;
    for (i = 0; i < 2; i++) {
        for (j = 0; j < 0; j++) { out[2] = ghost[i][j]; }
        out[1] = out[1] + 1;
        for (j = 0; j < 3; j++) { out[1] = out[1] + 1; out[3] = ghost[i][j]; }
    }
}
