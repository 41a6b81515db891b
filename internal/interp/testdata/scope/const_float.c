// want: 0.30000000000000004 -Inf +Inf 0
// Constant double expressions round like any other double operation,
// and a negated zero keeps its sign. The integer division by zero is
// never executed.
void const_float(int n, double *out) {
    double d;
    out[0] = 0.1 + 0.2;
    d = -0.0;
    out[1] = 1.0 / d;
    out[2] = 1.0 / 0.0;
    if (n < 0) {
        k = 1 / 0;
        out[3] = k;
    }
}
