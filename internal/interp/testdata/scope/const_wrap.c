// want: -9223372036854775808 9223372036854775807 3 -1
// Constant int arithmetic wraps in two's complement, as every mini-C
// engine's int64 does (C leaves signed overflow undefined), and int
// division and remainder of constants truncate toward zero.
void const_wrap(int n, double *out) {
    int k;
    k = 9223372036854775807 + 1;
    out[0] = k;
    k = -9223372036854775807 - 2;
    out[1] = k;
    out[2] = 7 / 2;
    out[3] = -7 % 3;
}
