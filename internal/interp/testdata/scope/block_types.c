// want: 1 1.5 0 0
void block_types(int n, double *out) {
    { int x; x = 3; out[0] = x / 2; }
    { double x; x = 3; out[1] = x / 2; }
}
