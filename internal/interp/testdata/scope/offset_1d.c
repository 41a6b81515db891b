// want: 9.5 3 5 7
// Subscripts of the form x + c, c + x and x - c + d, and one whose
// constant is negative: each must reach the element C computes.
void offset_1d(int n, double *out) {
    double a[8];
    int i;
    for (i = 0; i < 7; i++) { a[i + 1] = 2 * i + 1; }
    a[0] = 0.5;
    for (i = 0; i < 3; i++) { out[1 + i] = a[i - 1 + 3]; }
    out[0] = a[1 + 4] + a[n - 7];
}
