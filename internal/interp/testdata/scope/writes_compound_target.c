// want: 2 1 0 3
// A compound assignment evaluates its target once: each statement steps
// m once and updates the element it named.
void writes_compound_target(int n, double *out) {
    int a[4];
    int i, m;
    for (i = 0; i < 4; i++) { a[i] = i + 1; }
    m = 0;
    a[m++] *= 2;
    a[m++] -= 1;
    a[m++] %= 1;
    out[0] = a[0];
    out[1] = a[1];
    out[2] = a[2];
    out[3] = m;
}
