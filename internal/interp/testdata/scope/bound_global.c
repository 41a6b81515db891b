// want: 4 4 3 6
// A compound bound that reads a global: a callee in the body lowers
// it, then the body lowers it directly.
int g_lim;
void shrink(int k) { g_lim = g_lim - k; }
void bound_global(int n, double *out) {
    int i, c;
    g_lim = 8;
    c = 0;
    for (i = 0; i < g_lim - 1; i++) { shrink(1); c = c + 1; }
    out[0] = c;
    out[1] = g_lim;
    g_lim = n;
    c = 0;
    for (i = 0; i < g_lim - 1; i++) { g_lim = g_lim - 1; c = c + 1; }
    out[2] = c;
    out[3] = g_lim + c - 1;
}
