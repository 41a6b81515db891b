// want: 0.5 1.5 3 0
void body_then_block(int n, double *out) {
    int i;
    for (i = 0; i < 2; i++) { double y; y = i + 0.5; out[i] = y; }
    { int y; y = 7; out[2] = y / 2; }
}
