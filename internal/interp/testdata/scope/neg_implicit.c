// want: -2.5 0 0 0
void neg_implicit(int n, double *out) {
    u = -2.5;
    out[0] = u;
}
