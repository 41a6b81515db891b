// want: 1.5 1 0 0
void nested_array(int n, double *out) {
    double a[2];
    a[0] = 1.5;
    { int a[2]; a[0] = 3; out[1] = a[0] / 2; }
    out[0] = a[0];
}
