// want: 2.5 0 0 0
void cond_implicit(int n, double *out) {
    t = 1 > 0 ? 2.5 : 1.5;
    out[0] = t;
}
