// want: 1 0 0 0
// error: interp: unbound variable "w" at 5:5
void unbound_compound(int n, double *out) {
    out[0] = 1;
    w += 1;
}
