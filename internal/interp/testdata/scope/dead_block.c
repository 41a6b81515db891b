// want: 1.5 0 0 0
void dead_block(int n, double *out) {
    double x;
    x = 1.5;
    { int x; x = 4; }
    out[0] = x;
}
