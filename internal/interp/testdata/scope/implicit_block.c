// want: 2 0 0 0
// error: interp: unbound variable "q" at 5:14
void implicit_block(int n, double *out) {
    { q = 2; out[0] = q; }
    out[1] = q;
}
