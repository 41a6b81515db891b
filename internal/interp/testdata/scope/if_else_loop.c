// want: 2.5 2 2.5 2
void if_else_loop(int n, double *out) {
    int i;
    for (i = 0; i < 4; i++) {
        if (i % 2 == 0) { double x; x = 2.5; out[i] = x; }
        else { int x; x = 5; out[i] = x / 2; }
    }
}
