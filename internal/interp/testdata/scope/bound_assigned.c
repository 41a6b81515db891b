// want: 3 34 42 45
// A compound loop bound whose name the loop changes: by = in the body,
// by -= in the body, by -- in an inner loop's body, and in the post.
// Each bound must be evaluated again on every test.
void bound_assigned(int n, double *out) {
    int i, j, m, c;
    m = 6;
    c = 0;
    for (i = 0; i < m - 1; i++) { m = m - 1; c = c + 1; }
    out[0] = c;
    m = 10;
    c = 0;
    for (i = 0; i < m - 2; i++) { m -= 2; c += 1; }
    out[1] = c * 10 + m;
    m = 6;
    c = 0;
    for (i = 0; i < m + 2; i++) { for (j = 0; j < 1; j++) { m--; } c = c + 1; }
    out[2] = c * 10 + m;
    m = 9;
    c = 0;
    for (i = 0; i < m - 1; m--) { i = i + 1; c = c + 1; }
    out[3] = c * 10 + m;
}
