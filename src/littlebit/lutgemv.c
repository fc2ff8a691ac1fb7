/* Byte-table GEMV over packed sign bits (LUT-GEMM, Park et al. 2022;
 * T-MAC, Wei et al. 2024), and the bit transpose that lays a factor out
 * for it (lb_transpose, at the end).
 *
 * y[b, j] = sum_i x[b, i] * s_ji, where s_ji is +1 if bit i of row j is
 * set and -1 if not. Row j of `bits` holds its signs LSB-first in
 * `row_bytes` bytes; bits past n must be zero.
 *
 * For each group of 8 inputs z[0..7] a 256-entry table holds every signed
 * sum: T[0] = -sum(z), and T[v] = T[v & (v-1)] + 2 z[ctz v] flips one sign
 * to +. Positions past n read as 0, so pad bits add nothing. Each output
 * row then sums T_g[byte g] over its bytes. TILE groups' tables are live
 * at once (2 KB each), so they stay in L2 while every row streams past.
 *
 * Each y[b, j] is summed in the same order whatever the batch size and
 * row index, so a batch gives the same bits as its rows one at a time.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TILE 64

static void build_tables(const double *x, int64_t n, int64_t g0, int64_t g1,
                         double *tables)
{
    for (int64_t g = g0; g < g1; g++) {
        double z[8], sum = 0.0;
        for (int k = 0; k < 8; k++) {
            int64_t i = 8 * g + k;
            z[k] = i < n ? x[i] : 0.0;
            sum += z[k];
        }
        double *t = tables + 256 * (g - g0);
        t[0] = -sum;
        for (int v = 1; v < 256; v++)
            t[v] = t[v & (v - 1)] + 2.0 * z[__builtin_ctz(v)];
    }
}

/* Returns 0, or -1 if the tables could not be allocated. */
int lb_gemv(const double *x, int64_t batch, int64_t n, const uint8_t *bits,
            int64_t m, int64_t row_bytes, double *y)
{
    const int64_t groups = (n + 7) / 8;
    double *tables = malloc(sizeof(double) * 256 * TILE);
    if (tables == NULL)
        return -1;
    for (int64_t b = 0; b < batch; b++) {
        const double *xb = x + b * n;
        double *yb = y + b * m;
        memset(yb, 0, sizeof(double) * m);
        for (int64_t g0 = 0; g0 < groups; g0 += TILE) {
            const int64_t g1 = g0 + TILE < groups ? g0 + TILE : groups;
            const int64_t gn = g1 - g0;
            build_tables(xb, n, g0, g1, tables);
            int64_t j = 0;
            /* four rows at once: independent sums hide the add latency */
            for (; j + 4 <= m; j += 4) {
                const uint8_t *r0 = bits + j * row_bytes + g0;
                const uint8_t *r1 = r0 + row_bytes;
                const uint8_t *r2 = r1 + row_bytes;
                const uint8_t *r3 = r2 + row_bytes;
                double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                for (int64_t g = 0; g < gn; g++) {
                    const double *t = tables + 256 * g;
                    a0 += t[r0[g]];
                    a1 += t[r1[g]];
                    a2 += t[r2[g]];
                    a3 += t[r3[g]];
                }
                yb[j] += a0;
                yb[j + 1] += a1;
                yb[j + 2] += a2;
                yb[j + 3] += a3;
            }
            for (; j < m; j++) {
                const uint8_t *r = bits + j * row_bytes + g0;
                double a = 0.0;
                for (int64_t g = 0; g < gn; g++)
                    a += tables[256 * g + r[g]];
                yb[j] += a;
            }
        }
    }
    free(tables);
    return 0;
}

/* In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3): bit j of
 * word i moves to bit i of word j. Each round swaps the off-diagonal
 * blocks of every block on the diagonal, halving the block side. */
static void transpose64(uint64_t a[64])
{
    uint64_t m = 0x00000000FFFFFFFFULL;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

/* dst = the bit transpose of src: bit i of row j of dst is bit j of row i
 * of src. src has `rows` rows of `src_words` words holding `cols` bits
 * each, bits past cols zero. dst has `cols` rows of `dst_words` words;
 * the 64x64 blocks cover every word of it, with zeros past bit `rows`. */
void lb_transpose(const uint64_t *src, int64_t rows, int64_t src_words,
                  int64_t cols, uint64_t *dst, int64_t dst_words)
{
    for (int64_t i0 = 0; i0 < rows; i0 += 64) {
        const int64_t ni = rows - i0 < 64 ? rows - i0 : 64;
        for (int64_t w = 0; w < src_words; w++) {
            uint64_t a[64];
            int64_t i = 0;
            for (; i < ni; i++)
                a[i] = src[(i0 + i) * src_words + w];
            for (; i < 64; i++)
                a[i] = 0;
            transpose64(a);
            const int64_t nj = cols - 64 * w < 64 ? cols - 64 * w : 64;
            for (int64_t j = 0; j < nj; j++)
                dst[(64 * w + j) * dst_words + i0 / 64] = a[j];
        }
    }
}
