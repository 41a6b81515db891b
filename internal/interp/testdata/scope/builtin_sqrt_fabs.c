// want: 2.5 2.5 1 2
// sqrt and fabs at double and int sites, on exact inputs.
void builtin_sqrt_fabs(int n, double *out) {
    int k;
    out[0] = sqrt(6.25);
    out[1] = fabs(n - 9.5);
    k = sqrt(n + 9);
    out[2] = k / 3;
    k = fabs(-2.5);
    out[3] = k;
}
