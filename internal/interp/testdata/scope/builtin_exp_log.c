// want: 1 0.5 0 -1
// exp and log at double and int sites, on inputs whose C results are
// exact: exp(±0) = 1, log(1) = +0. An int argument converts to double.
void builtin_exp_log(int n, double *out) {
    int k;
    out[0] = exp(0.0);
    out[1] = exp(n - 7) / 2;
    out[2] = log(1.0);
    k = log(n - 6) - exp(-0.0);
    out[3] = k;
}
