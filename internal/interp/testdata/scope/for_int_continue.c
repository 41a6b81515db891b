// want: 0 1 0 3
void for_int_continue(int n, double *out) {
    for (int i = 0; i < 4; i++) {
        if (i % 2 == 0) continue;
        out[i] = i;
    }
}
