// want: 128 3 12 1
// A shift is int; its constant left operand stays an int at a double
// site.
void const_shift(int n, double *out) {
    out[0] = 1 << n;
    out[1] = n >> 1;
    out[2] = 3 << 2;
    out[3] = (1 << n) / 128;
}
