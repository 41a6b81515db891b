// want: 0 1 10 11
void for_int_nest(int n, double *out) {
    for (int i = 0; i < 2; i++) {
        for (int j = 0; j < 2; j++) {
            out[2 * i + j] = i * 10 + j;
        }
    }
}
