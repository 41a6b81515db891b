// want: 1 2.5 0 0
double g_shadow;
void global_shadow(int n, double *out) {
    g_shadow = 2.5;
    { int g_shadow; g_shadow = 3; out[0] = g_shadow / 2; }
    out[1] = g_shadow;
}
