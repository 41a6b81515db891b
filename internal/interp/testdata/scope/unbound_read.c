// want: 0 0 0 0
// error: interp: unbound variable "zz" at 4:14
void unbound_read(int n, double *out) {
    out[0] = zz + 1;
}
