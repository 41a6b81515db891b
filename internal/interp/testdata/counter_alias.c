/* The AMG fill and matvec in one function. The plan's runtime check
   -1+irownnz<=irownnz_max names the counter's run-time value, and no
   program variable is called irownnz_max: only the check alias binds it. */
void amg(int num_rows, int *A_i, int *A_rownnz, int *A_j, double *A_data,
         double *x_data, double *y_data) {
    int irownnz = 0;
    int i, jj, m, adiag;
    double tempx;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
    for (i = 0; i < irownnz; i++) {
        m = A_rownnz[i];
        tempx = y_data[m];
        for (jj = A_i[m]; jj < A_i[m+1]; jj++)
            tempx += A_data[jj] * x_data[A_j[jj]];
        y_data[m] = tempx;
    }
}
