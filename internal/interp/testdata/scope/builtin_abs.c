// want: 3 1 3 1
// abs returns int: its argument truncates toward zero, and an int site
// (integer division, an implicit scalar, a ?: with an int branch) keeps
// the result int.
void builtin_abs(int n, double *out) {
    out[0] = abs(-3.7);
    out[1] = abs(-3.7) / 2;
    t = abs(n - 14);
    out[2] = t / 2;
    out[3] = (n > 0 ? abs(-3.7) : 1) / 2;
}
