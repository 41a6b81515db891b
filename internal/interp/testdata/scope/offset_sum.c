// want: -2 3 8 1
// Subscripts that add or subtract two terms each carrying a constant,
// j + (k + 1) and (n + 2) - (k + 1), as a loop nest normalized from a
// shifted inner loop writes them.
void offset_sum(int n, double *out) {
    double a[16];
    int i, j, k;
    for (i = 0; i < 16; i++) { a[i] = i - 5; }
    k = 2;
    for (j = 0; j < 3; j++) { out[j + (k - 2)] = a[j + (k + 1) + 4 * j]; }
    out[3] = a[(n + 2) - (k + 1)];
}
