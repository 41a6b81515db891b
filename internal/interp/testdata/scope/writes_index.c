// want: 20 0 8 0
// The body steps the index: C runs the body at i = 0, 2, 4 and 6 and
// writes a[1], a[3], a[5] and a[7] only.
void writes_index(int n, double *out) {
    double a[8];
    int i;
    for (i = 0; i < 8; i++) { a[i] = 0; }
    for (i = 0; i < n; i++) { i = i + 1; a[i] = 5; }
    out[0] = a[1] + a[3] + a[5] + a[7];
    out[1] = a[0] + a[2] + a[4] + a[6];
    out[2] = i;
}
