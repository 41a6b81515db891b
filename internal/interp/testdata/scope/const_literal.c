// want: 1e+308 5e-324 0 2
// A double literal is read once, in the parser: the largest powers of
// ten and the smallest subnormal keep their value, one below the
// subnormal range underflows to 0 as in C, and a float literal stored
// to an int truncates toward zero.
void const_literal(int n, double *out) {
    int k;
    out[0] = 1e308;
    out[1] = 5e-324;
    out[2] = 1e-400;
    k = 2.5f;
    out[3] = k;
}
