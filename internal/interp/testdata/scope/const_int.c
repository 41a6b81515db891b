// want: 2 7 3 -2
// A double constant expression assigned to an int truncates toward zero.
void const_int(int n, double *out) {
    int x;
    x = 2.5;
    out[0] = x;
    x = 2.5 * 3;
    out[1] = x;
    x = 7 / 2.0;
    out[2] = x;
    x = -2.5;
    out[3] = x;
}
