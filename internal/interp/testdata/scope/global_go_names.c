// want: 0.5 3.5 6.5 9.5
int atomic;
int claims;
double sync;
int fmt;
double os;
void global_go_names(int n, double *out) {
    int i;
    atomic = 3;
    claims = 1;
    sync = 0.5;
    fmt = 0;
    os = 0;
    for (i = 0; i < 4; i++) { out[i] = atomic * i + claims * sync + fmt * os; }
}
