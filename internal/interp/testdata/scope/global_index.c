// want: 4 1 2 3
int g_index;
void global_index(int n, double *out) {
    for (g_index = 0; g_index < 4; g_index++) { out[g_index] = g_index; }
    out[0] = g_index;
}
