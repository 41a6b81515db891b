// want: 0.25 -8 0 24
// pow with a negative exponent and a negative base; at an int site the
// result truncates toward zero.
void builtin_pow(int n, double *out) {
    int k;
    out[0] = pow(2, -2);
    out[1] = pow(-2, 3);
    k = pow(2, -2);
    out[2] = k;
    k = pow(n, 2);
    out[3] = k / 2;
}
