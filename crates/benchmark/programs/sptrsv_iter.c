for (i = 0; i < n; i++) {
    cnt = 0;
    for (t = 0; t < i; t++) {
        if (lower[i][t] % 17 == 0) { cnt = cnt + 1; }
    }
    rowcount[i] = cnt;
}
rowptr[0] = 0;
for (r = 1; r <= n; r++) {
    rowptr[r] = rowptr[r-1] + rowcount[r-1];
}
for (i = 0; i < n; i++) {
    k = rowptr[i];
    for (t = 0; t < i; t++) {
        if (lower[i][t] % 17 == 0) {
            col[k] = t;
            val[k] = lower[i][t] + 1;
            k = k + 1;
        }
    }
}
for (s = 0; s < 8; s++) {
    for (i = 0; i < n; i++) {
        sum = b[i];
        for (k = rowptr[i]; k < rowptr[i+1]; k++) {
            sum = sum - val[k] * x[col[k]];
        }
        x[i] = sum;
    }
}
