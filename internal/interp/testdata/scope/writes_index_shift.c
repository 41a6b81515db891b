// want: 0 15 7 0
// The body steps the index of a loop that starts at 1: no shift of the
// iteration space may rewrite the assignment to the index.
void writes_index_shift(int n, double *out) {
    double a[8];
    int i;
    for (i = 0; i < 8; i++) { a[i] = 0; }
    for (i = 1; i < n; i++) { i = i + 1; a[i] = 5; }
    out[0] = a[1] + a[3] + a[5] + a[7];
    out[1] = a[0] + a[2] + a[4] + a[6];
    out[2] = i;
}
