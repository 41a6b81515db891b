// want: 4 -4 1 4
// An inner loop's post lowers a name the outer bound reads: the outer
// loop runs 4 times.
void writes_inner_post(int n, double *out) {
    int i, j, m, c;
    m = 0;
    c = 0;
    for (i = 0; i < 8 + m; i++) { for (j = 0; j < 1; m--) { j = j + 1; } c = c + 1; }
    out[0] = c;
    out[1] = m;
    out[2] = j;
    out[3] = i;
}
