// want: 6 3 0 0
// error: interp: array h index 3 out of range [0,3) in dim 1
// The subscript that varies with the loop is the middle one, and it
// leaves the array at j = 3.
void hoist_varying_leaves(int n, double *out) {
    double h[2][3][4];
    int j;
    for (j = 0; j < n; j++) {
        out[1] = j;
        h[1][j][2] = j + 1;
        out[0] = out[0] + h[1][j][2];
    }
}
