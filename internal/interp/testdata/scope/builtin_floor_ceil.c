// want: -3 -1 -2 -3
// floor and ceil of negatives; at an int site the result converts to
// int, and int division truncates toward zero.
void builtin_floor_ceil(int n, double *out) {
    int k;
    out[0] = floor(-2.5);
    k = floor(-2.5);
    out[1] = k / 2;
    out[2] = ceil(-2.5);
    k = ceil(-n / 2.0);
    out[3] = k;
}
