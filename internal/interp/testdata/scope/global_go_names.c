// want: 0.5 3.5 6.5 9.5
int atomic;
int claims;
double sync;
int fmt;
double os;
int sortStrings;
int runtime;
int offered;
double spinners;
int help;
int await;
int enlist;
double helperWindow;
int joinWindow;
void global_go_names(int n, double *out) {
    int i;
    atomic = 3;
    claims = 1;
    sync = 0.5;
    fmt = 0;
    os = 0;
    sortStrings = 0;
    runtime = 2;
    offered = 1;
    spinners = 0.5;
    help = 4;
    await = 0;
    enlist = 0;
    helperWindow = 0.25;
    joinWindow = 0;
    for (i = 0; i < 4; i++) {
        out[i] = atomic * i + claims * sync + fmt * os + sortStrings
            + (runtime - offered - spinners) * await + (help * helperWindow - 1) * enlist + joinWindow;
    }
}
