// want: 0.5 0 0 0
void cond_convert(int n, double *out) {
    int k;
    k = 1;
    out[0] = (k > 0 ? 1 : 2.5) / 2;
}
