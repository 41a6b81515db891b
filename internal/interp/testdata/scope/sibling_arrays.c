// want: 1 1.5 0 0
void sibling_arrays(int n, double *out) {
    { int a[2]; a[0] = 3; out[0] = a[0] / 2; }
    { double a[2]; a[0] = 3; out[1] = a[0] / 2; }
}
