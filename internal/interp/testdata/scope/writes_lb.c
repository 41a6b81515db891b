// want: 30 0 8 8
// The body changes a name the lower bound reads: C reads the bound once,
// at the init, and runs i = 2 .. 7 whatever k becomes.
void writes_lb(int n, double *out) {
    double a[8];
    int i, k;
    for (i = 0; i < 8; i++) { a[i] = 0; }
    k = 2;
    for (i = k; i < 8; i++) { k = k + 1; a[i] = 5; }
    out[0] = a[2] + a[3] + a[4] + a[5] + a[6] + a[7];
    out[1] = a[0] + a[1];
    out[2] = k;
    out[3] = i;
}
