// want: 1.5 1 0.5 43
// A subscripted subscript with offsets inside and outside, a[p[i + 1] - 1],
// read, written and multiply-accumulated.
void offset_gather(int n, double *out) {
    int p[5];
    double a[6];
    double s;
    int i;
    for (i = 0; i < 5; i++) { p[i] = 5 - i; }
    for (i = 0; i < 6; i++) { a[i] = 0.5 * i; }
    for (i = 0; i < 3; i++) { out[i] = a[p[i + 1] - 1]; }
    for (i = 0; i < 4; i++) { a[p[i + 1] - 1] = a[p[i + 1] - 1] + 10; }
    s = 0;
    for (i = 0; i < 2; i++) { s = s + 2.0 * a[p[i + 2] - 1]; }
    out[3] = s;
}
