// want: -1.5 3 -1 -1
// fmod takes the sign of its dividend; at an int site the result
// truncates toward zero.
void builtin_fmod(int n, double *out) {
    int k;
    out[0] = fmod(-7.5, 2);
    out[1] = fmod(n, -4);
    k = fmod(-7.5, 2);
    out[2] = k;
    k = fmod(-n, 4);
    out[3] = k / 2;
}
