for (i = 0; i < nrows; i++) {
    cnt = 0;
    for (t = 0; t < ncols; t++) {
        if (dense[i][t] % 16 == 0) { cnt++; }
    }
    rowcount[i] = cnt;
}
rowstr[0] = 0;
for (r = 1; r <= nrows; r++) {
    rowstr[r] = rowstr[r-1] + rowcount[r-1];
}
for (it = 0; it < 32; it++) {
    for (j = 0; j < nrows; j++) {
        sum = it;
        for (k = rowstr[j]; k < rowstr[j+1]; k++) {
            prod[k] = aval[k] * p[colidx[k]];
            sum = sum + prod[k];
        }
        q[j] = sum;
    }
}
