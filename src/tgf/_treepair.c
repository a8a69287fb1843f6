/* Compiled tree-pair kernel for Thompson's group F, and its level store.
 *
 * Same semantics as the pure-Python reference tgf.treepair, on the same
 * packed canonical keys: 0x46, leaf count L (u16 big endian), then the
 * 2(2L-1) preorder tokens of the domain and range trees (1 = caret,
 * 0 = leaf) packed MSB-first, with zero padding bits.  compose_keys(a, b)
 * is the reduced pair of a*b with b acting first.
 *
 * Level is the compact store of one ladder level, keys to counts in
 * 1..2**32-1: one open-addressing hash table whose 8-byte slots point into
 * an arena of records (key length, key bytes, u32 count) kept in insertion
 * order.  It offers what the library calls: get, len, iteration over the
 * keys and items() in that order, as a dict's, and the per-level passes,
 * each the twin of a dict loop in tgf.treepair: subtract_scaled,
 * squared_two_norm, coefficient_sum and dump_entries (the sorted checkpoint
 * body).  load_entries(body, count) reads such a body back into a Level,
 * refusing keys out of strictly increasing order, counts the store cannot
 * hold and keys that are not canonical.  A Level comes only from apply_left
 * or load_entries; it has no constructor.  Sums are exact (128-bit), and an
 * apply_left count past 2**32 - 1 raises OverflowError.
 *
 * apply_left(factors, vec), inner(words, vec) and subtract_scaled(sub,
 * factor) walk only Levels of this module: any other vec or sub raises
 * TypeError.
 *
 * apply_left and inner run one batch driver.  It checks and unpacks each
 * factor once per call, splits a factor that is x0^±1 or x1^±1, or a
 * product of two of them, into those letters, walks vec once, and packs
 * each product g*x into a scratch buffer; a product with the identity is
 * the other factor as it is.  A factor that is one or two letters, on a
 * key of up to FAST_TOKENS tokens per tree (26 leaves, more than any
 * ladder key has), takes the fast path: each letter is a local edit of the
 * packed trees near the range tree's root (see left_letter), with no
 * unpack, index, full reduction or repack.  That is every factor of cases 1
 * and 2 and every lookahead word t^-1 s of theirs.  Every other factor,
 * and any factor on a larger key, takes the general product, as
 * compose_keys does.  An item's products are all
 * built, and the table slots they need fetched, before the item before it
 * is used, so the table reads overlap the next item's edits.  Only the
 * step per product differs:
 *   - apply_left accumulates into a new Level, in the insertion order of
 *     tgf.treepair.apply_left (identity factors first, then the others),
 *     making no Python object per product.  The new Level holds at least
 *     as many keys as vec, so its table starts at that size.
 *   - inner adds vec[x] * vec[w*x], looked up by the product's raw bytes,
 *     to the 128-bit sum of word w, giving <w.h, h> for the group-ring
 *     element h that vec holds.  A count is below 2**32 and the arena holds
 *     fewer than 2**40 records, so a sum stays below 2**104.
 * compose_keys and invert_key use static scratch buffers instead, so the
 * brute-force walks pay no allocation per call.
 *
 * A key is checked where it enters (tag, leaf count, exact length, zero
 * padding, two complete trees), and a malformed one raises TreePairError:
 * compose_keys and invert_key check their arguments, the batch driver its
 * factors, and load_entries each key of the body.  The batch driver and
 * load_entries also refuse a key that is not reduced, so every key of a
 * Level is canonical (check_key): products of canonical keys are, and so
 * are the keys of vec that apply_left copies.  The walks of a Level check
 * no key.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KEY_TAG 0x46
#define LEAF 0
#define CARET 1
#define MAX_LEAVES 0xFFFF

static PyObject *TreePairError;
static PyObject *IdentityKey;
/* BITS[v] holds the eight bits of byte v, MSB first, one per byte */
static unsigned char BITS[256][8];

/* -- scratch buffers -------------------------------------------------------- */

typedef struct {
    unsigned char *p;
    size_t cap;
} Buf;

static unsigned char *
reserve(Buf *b, size_t need)
{
    if (need > b->cap) {
        size_t cap = need < 256 ? 256 : need + need / 2;
        unsigned char *p = PyMem_Realloc(b->p, cap);
        if (p == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        b->p = p;
        b->cap = cap;
    }
    return b->p;
}

/* A tree pair as token arrays of 2*nl - 1 tokens each. */
typedef struct {
    const unsigned char *dom, *rng;
    int nl;
} Pair;

/* A factor that is one or two letters (see left_letter), g[0] acting
 * first; n = 0 for any other factor. */
typedef struct {
    int n, g[2];
} Letters;

/* -- keys ------------------------------------------------------------------- */

static int
fail(const char *msg)
{
    PyErr_SetString(TreePairError, msg);
    return -1;
}

static Py_ssize_t
packed_size(Py_ssize_t ntok)
{
    return 3 + (2 * ntok + 7) / 8;
}

/* The bytes of a key object, which must be bytes. */
static int
key_bytes(PyObject *key, const unsigned char **s, Py_ssize_t *len)
{
    if (!PyBytes_Check(key)) {
        PyErr_Format(PyExc_TypeError, "tree-pair key must be bytes, not %.100s",
                     Py_TYPE(key)->tp_name);
        return -1;
    }
    *s = (const unsigned char *)PyBytes_AS_STRING(key);
    *len = PyBytes_GET_SIZE(key);
    return 0;
}

/* Checks the tag, leaf count and length of the key s[0:len]; returns L or -1. */
static int
key_leaves(const unsigned char *s, Py_ssize_t len)
{
    if (len < 3 || s[0] != KEY_TAG)
        return fail("not a tree-pair key");
    int nl = s[1] << 8 | s[2];
    if (nl < 1)
        return fail("tree-pair key has leaf count 0");
    if (len != packed_size(2 * nl - 1))
        return fail("tree-pair key length does not match its leaf count");
    return nl;
}

static int
complete_tree(const unsigned char *t, int ntok)
{
    int need = 1;
    for (int i = 0; i < ntok; i++) {
        if (need == 0)
            return 0;
        need += t[i] == CARET ? 1 : -1;
    }
    return need == 0;
}

/* Room that unpack_tokens needs for a key of `nl` leaves. */
static size_t
token_room(int nl)
{
    return 8 * (size_t)(packed_size(2 * nl - 1) - 3);
}

/* Unpacks the key s[0:len] of `nl` leaves (see key_leaves) into tokens at
 * t, which has token_room(nl) bytes. */
static void
unpack_tokens(const unsigned char *s, Py_ssize_t len, int nl, unsigned char *t, Pair *out)
{
    for (Py_ssize_t i = 3; i < len; i++)
        memcpy(t + 8 * (i - 3), BITS[s[i]], 8);
    out->dom = t;
    out->rng = t + 2 * nl - 1;
    out->nl = nl;
}

/* Unpacks the key s[0:len] into tokens at the start of buf, checking its
 * tag, leaf count and length (key_leaves), padding and trees. */
static int
unpack(const unsigned char *s, Py_ssize_t len, Buf *buf, Pair *out)
{
    int nl = key_leaves(s, len), ntok = 2 * nl - 1;
    if (nl < 0 || reserve(buf, token_room(nl)) == NULL)
        return -1;
    unsigned char *t = buf->p;
    unpack_tokens(s, len, nl, t, out);
    for (Py_ssize_t k = 2 * ntok; k < 8 * (len - 3); k++)
        if (t[k])
            return fail("tree-pair key has nonzero padding bits");
    if (!complete_tree(t, ntok) || !complete_tree(t + ntok, ntok))
        return fail("tree-pair key does not hold two complete trees");
    return 0;
}

/* Packs the pair whose domain and range tokens are t[0:ntok] and
 * t[ntok:2*ntok] into out; returns the key length or -1.  t needs 7 spare
 * bytes after the tokens. */
static Py_ssize_t
pack_into(unsigned char *t, int ntok, Buf *out)
{
    int nl = (ntok + 1) / 2;
    if (nl > MAX_LEAVES)
        return fail("tree too large for key format");
    Py_ssize_t size = packed_size(ntok);
    unsigned char *s = reserve(out, size);
    if (s == NULL)
        return -1;
    s[0] = KEY_TAG;
    s[1] = (unsigned char)(nl >> 8);
    s[2] = (unsigned char)(nl & 0xFF);
    memset(t + 2 * ntok, LEAF, 7);
    for (Py_ssize_t i = 3; i < size; i++, t += 8)
        s[i] = (unsigned char)(t[0] << 7 | t[1] << 6 | t[2] << 5 | t[3] << 4
                               | t[4] << 3 | t[5] << 2 | t[6] << 1 | t[7]);
    return size;
}

/* -- composition ------------------------------------------------------------ */

/* Index one past the subtree whose root is at token i. */
static int
skip(const unsigned char *t, int i)
{
    int need = 1;
    while (need)
        need += t[i++] == CARET ? 1 : -1;
    return i;
}

/* Replaces leaf k of t by src[x[2k] : x[2k+1]] (a single leaf when x[2k] < 0). */
static int
attach(const unsigned char *t, int ntok, const int *x, const unsigned char *src,
       unsigned char *out)
{
    int o = 0, leaf = 0;
    for (int p = 0; p < ntok; p++) {
        if (t[p] == CARET) {
            out[o++] = CARET;
            continue;
        }
        const int *span = x + 2 * leaf++;
        if (span[0] < 0) {
            out[o++] = LEAF;
        }
        else {
            memcpy(out + o, src + span[0], span[1] - span[0]);
            o += span[1] - span[0];
        }
    }
    return o;
}

/* flags[i] = 1 when leaves i and i+1 of t are the two children of one
 * caret, that is when leaf i follows a caret and a leaf follows it.  A tree
 * of ntok >= 3 tokens starts with a caret and ends with its last leaf; at a
 * caret position the loop stores a value that the next leaf overwrites. */
static void
sibling_flags(const unsigned char *t, int ntok, unsigned char *flags)
{
    int leaf = 0;
    for (int p = 1; p < ntok - 1; p++) {
        flags[leaf] = t[p - 1] & !t[p + 1];
        leaf += !t[p];
    }
    flags[leaf] = 0;
}

/* Collapses, in place, every caret over leaves (i, i+1) with common[i] set. */
static int
drop_common(unsigned char *t, int ntok, const unsigned char *common)
{
    int o = 0, leaf = 0, p = 0;
    while (p < ntok) {
        if (t[p] == CARET && p + 2 < ntok && t[p + 1] == LEAF && t[p + 2] == LEAF
            && common[leaf]) {
            t[o++] = LEAF;
            leaf += 2;
            p += 3;
        }
        else {
            leaf += t[p] == LEAF;
            t[o++] = t[p++];
        }
    }
    return o;
}

/* Cancels carets common to both trees until the pair is reduced; returns the
 * new token count.  `flags` needs two bytes per leaf.  Common pairs never
 * overlap, since a leaf has one parent. */
static int
reduce(unsigned char *d, unsigned char *r, int ntok, unsigned char *flags)
{
    while (ntok > 1) {
        int nl = (ntok + 1) / 2;
        unsigned char *common = flags, *rflags = flags + nl, found = 0;
        sibling_flags(d, ntok, common);
        sibling_flags(r, ntok, rflags);
        for (int i = 0; i < nl; i++)
            found |= common[i] &= rflags[i];
        if (!found)
            break;
        drop_common(r, ntok, common);
        ntok = drop_common(d, ntok, common);
    }
    return ntok;
}

/* Index of the right factor b of a product, built once per key: ix[i] for
 * i < ntok is one past the subtree at token i of b's range, and
 * ix[ntok + k] is the token index of leaf k of b's domain. */
static int *
index_pair(const Pair *b, Buf *buf)
{
    int ntok = 2 * b->nl - 1;
    int *ix = (int *)reserve(buf, ((size_t)ntok + b->nl) * sizeof(int));
    if (ix == NULL)
        return NULL;
    for (int i = ntok - 1; i >= 0; i--)
        ix[i] = b->rng[i] == LEAF ? i + 1 : ix[ix[i + 1]];
    int *leaf = ix + ntok;
    /* a caret stores a value that the next leaf overwrites */
    for (int i = 0, k = 0; i < ntok; i++) {
        leaf[k] = i;
        k += b->dom[i] == LEAF;
    }
    return ix;
}

/* Packs the key of the reduced pair a*b (b acts first) into out and returns
 * its length; ix is index_pair(b) and w the work buffer.  The walk and the
 * domain copy cost O(size of a) plus memcpy, so a small left factor is
 * cheap whatever the size of b. */
static Py_ssize_t
product(const Pair *a, const Pair *b, const int *ix, Buf *w, Buf *out)
{
    int na = 2 * a->nl - 1, nb = 2 * b->nl - 1;
    size_t cap = 2 * ((size_t)a->nl + b->nl);
    if (reserve(w, 5 * (size_t)a->nl * sizeof(int) + 5 * cap + 7) == NULL)
        return -1;
    /* xb: (leaf of b's range, span of a's domain below it) for each such
     * leaf, in order; xa: per leaf of a's domain, the span of b's range
     * below it, or -1 */
    int *xb = (int *)w->p, *xa = xb + 3 * a->nl;
    /* od holds the product's domain and then, for packing, its range */
    unsigned char *od = (unsigned char *)(xa + 2 * a->nl);
    unsigned char *orng = od + 2 * cap + 7, *flags = orng + cap;

    /* walk b's range and a's domain in lockstep as one subdivided interval */
    const unsigned char *rb = b->rng, *da = a->dom;
    int i = 0, j = 0, lb = 0, la = 0, nx = 0;
    while (i < nb) {
        if (rb[i] == da[j]) {
            if (rb[i] == LEAF) {
                lb++;
                xa[2 * la++] = -1;
            }
            i++;
            j++;
        }
        else if (rb[i] == LEAF) {
            int end = skip(da, j);
            xb[3 * nx] = lb++;
            xb[3 * nx + 1] = j;
            xb[3 * nx++ + 2] = end;
            for (int k = 0; k < (end - j + 1) / 2; k++)
                xa[2 * la++] = -1;
            i++;
            j = end;
        }
        else {
            int end = ix[i];
            xa[2 * la] = i;
            xa[2 * la++ + 1] = end;
            lb += (end - i + 1) / 2;
            i = end;
            j++;
        }
    }
    /* domain: b's domain with the listed leaves replaced by their spans */
    const unsigned char *db = b->dom;
    const int *leafpos = ix + nb;
    int ntok = 0, prev = 0;
    for (int e = 0; e < nx; e++) {
        int pos = leafpos[xb[3 * e]], start = xb[3 * e + 1], end = xb[3 * e + 2];
        memcpy(od + ntok, db + prev, pos - prev);
        ntok += pos - prev;
        memcpy(od + ntok, da + start, end - start);
        ntok += end - start;
        prev = pos + 1;
    }
    memcpy(od + ntok, db + prev, nb - prev);
    ntok += nb - prev;
    attach(a->rng, na, xa, rb, orng);
    ntok = reduce(od, orng, ntok, flags);
    memcpy(od + ntok, orng, ntok);
    return pack_into(od, ntok, out);
}

/* -- left multiplication by a letter ---------------------------------------
 *
 * A letter is x0, x1 or an inverse.  Left-multiplying a reduced pair by
 * one rotates its range tree at one node N, the root (x0^±1) or the root's
 * right child (x1^±1): ((A B) C) becomes (A (B C)) for x0^-1 and x1^-1,
 * and the reverse for x0 and x1.  Where N or its child on the rotated side
 * is a leaf, a caret is first grown there and at the same leaf of the
 * domain tree.  The rotation makes one new caret over two leaves possible,
 * (B C) or (A B); a common caret cancelled there can expose one more at N,
 * and a pair of two leaves is always e.  No other caret of the product
 * can be common to both trees, so the product is reduced without a scan.
 *
 * The edit works on the tokens of a pair as one 128-bit string, the first
 * token in the top bit, as in the key.  It serves pairs of up to
 * FAST_TOKENS tokens per tree: two letters grow at most eight tokens per
 * tree, and a scan reads a byte past the tokens, so every bit read stays
 * below bit 128.  That is 26 leaves, more than any key of the ladders
 * that fit in memory has (keys of case 1 level 23 and case 2 level 14
 * have at most 15 and 17); a larger pair takes product.  Subtree ends,
 * leaf positions and common carets are found by table, a byte or two at
 * a time. */

typedef unsigned __int128 Bits;
#define ALL_BITS (~(Bits)0)
#define FAST_TOKENS 52

enum { LETTER_AB = 1, LETTER_RIGHT = 2, N_LETTERS = 4 };

/* Letter g rotates at the root's right child when g & LETTER_RIGHT, else at
 * the root, and turns ((A B) C) into (A (B C)) when g & LETTER_AB, else
 * the reverse; g ^ LETTER_AB is its inverse.  Its trees, in preorder: */
static const char *const LETTER_TREES[N_LETTERS][2] = {
    {"10100", "11000"},     /* x0 */
    {"11000", "10100"},     /* x0^-1 */
    {"1010100", "1011000"}, /* x1 */
    {"1011000", "1010100"}, /* x1^-1 */
};
/* tokens with the 7 spare bytes pack_into needs, and keys padded to 16
 * bytes for load_be64 */
static unsigned char LETTER_TOKENS[N_LETTERS][21], LETTER_KEY[N_LETTERS][16];
static Pair LETTER_PAIR[N_LETTERS];
static Py_ssize_t LETTER_KEY_LEN[N_LETTERS];
static Bits LETTER_BITS[N_LETTERS];

/* SUBTREE_END[v][k - 1]: with k subtrees still to finish before byte v,
 * one past the bit of v that finishes them, or 0; BYTE_DELTA[v]: carets
 * less leaves in v; LEAF_AT[v][j]: the bit of v that is its leaf j;
 * LEAVES[v]: its leaves; SIBLINGS[p << 9 | v << 1 | n], for byte v between
 * bits p and n: bit j set when leaf j of v follows a caret and a leaf
 * follows it, then the leaf count of v from bit 8 on. */
static unsigned char SUBTREE_END[256][8], LEAF_AT[256][8], LEAVES[256];
static signed char BYTE_DELTA[256];
static uint16_t SIBLINGS[1024];

static void
init_bit_tables(void)
{
    for (int v = 0; v < 256; v++) {
        for (int k = 1; k <= 8; k++) {
            int need = k;
            for (int b = 0; b < 8 && !SUBTREE_END[v][k - 1]; b++)
                if ((need += BITS[v][b] ? 1 : -1) == 0)
                    SUBTREE_END[v][k - 1] = (unsigned char)(b + 1);
        }
        for (int b = 0; b < 8; b++) {
            BYTE_DELTA[v] += BITS[v][b] ? 1 : -1;
            if (!BITS[v][b])
                LEAF_AT[v][LEAVES[v]++] = (unsigned char)b;
        }
    }
    for (int i = 0; i < 1024; i++) {
        unsigned char t[10] = {(unsigned char)(i >> 9)};
        memcpy(t + 1, BITS[i >> 1 & 0xFF], 8);
        t[9] = i & 1;
        int flags = 0, leaves = 0;
        for (int b = 1; b <= 8; b++)
            if (!t[b])
                flags |= (t[b - 1] && !t[b + 1]) << leaves++;
        SIBLINGS[i] = (uint16_t)(flags | leaves << 8);
    }
}

static uint64_t
load_be64(const unsigned char *p)
{
    return (uint64_t)p[0] << 56 | (uint64_t)p[1] << 48 | (uint64_t)p[2] << 40
           | (uint64_t)p[3] << 32 | (uint64_t)p[4] << 24 | (uint64_t)p[5] << 16
           | (uint64_t)p[6] << 8 | (uint64_t)p[7];
}

static void
store_be64(unsigned char *p, uint64_t v)
{
    for (int b = 0; b < 8; b++)
        p[b] = (unsigned char)(v >> (56 - 8 * b));
}

static int
bit_at(Bits x, int i)
{
    return (int)(x >> (127 - i)) & 1;
}

/* The eight bits from bit i on. */
static unsigned
byte_at(Bits x, int i)
{
    return (unsigned)((x << i) >> 120);
}

/* One past the subtree whose root is bit i, or -1 when the subtree does
 * not end by bit `limit` (at most 120).  Two bytes are read at a time, so
 * that most subtrees take one step. */
static int
subtree_end(Bits x, int i, int limit)
{
    int need = 1;
    for (; i < limit; i += 16) {
        unsigned v = byte_at(x, i), w = byte_at(x, i + 8);
        int mid = need + BYTE_DELTA[v];
        int end = need <= 8 && SUBTREE_END[v][need - 1]
                      ? i + SUBTREE_END[v][need - 1]
                  : mid >= 1 && mid <= 8 && SUBTREE_END[w][mid - 1]
                      ? i + 8 + SUBTREE_END[w][mid - 1]
                  : 0;
        if (end)
            return end <= limit ? end : -1;
        need = mid + BYTE_DELTA[w];
    }
    return -1;
}

/* The bit of leaf j of the domain tree, the string's first tree. */
static int
leaf_bit(Bits x, int j)
{
    for (int i = 0;; i += 8) {
        unsigned v = byte_at(x, i);
        if (j < LEAVES[v])
            return i + LEAF_AT[v][j];
        j -= LEAVES[v];
    }
}

/* x with the k bits of v before bit i, and the bits from i on after them. */
static Bits
insert_bits(Bits x, int i, int k, unsigned v)
{
    Bits tail = ALL_BITS >> i;
    return (x & ~tail) | (x & tail) >> k | (Bits)v << (128 - k - i);
}

/* x without the k bits from bit i on. */
static Bits
remove_bits(Bits x, int i, int k)
{
    Bits tail = ALL_BITS >> i;
    return (x & ~tail) | (x << k & tail);
}

/* x with the caret at bit lo moved after the bits (lo, hi) when `left`,
 * else the caret at bit hi - 1 moved before the bits [lo, hi - 1). */
static Bits
move_caret(Bits x, int lo, int hi, int left)
{
    Bits field = ALL_BITS >> lo & ~(ALL_BITS >> hi), top = (Bits)1 << 127;
    Bits moved = left ? (x & field) << 1 | top >> (hi - 1) : (x & field) >> 1 | top >> lo;
    return (x & ~field) | (moved & field);
}

/* Cancels the caret at bit r of the range tree, over two leaves, with the
 * one over domain leaves j and j + 1 when that one exists; returns whether
 * it did. */
static int
cancel(Bits *x, int r, int j)
{
    int d = leaf_bit(*x, j);
    if (d == 0 || !bit_at(*x, d - 1) || bit_at(*x, d + 1))
        return 0;
    *x = remove_bits(remove_bits(*x, r, 2), d - 1, 2);
    return 1;
}

/* One past the range tree's left subtree, of the pair of ntok > 1 tokens
 * per tree in x. */
static int
left_end(Bits x, int ntok)
{
    return subtree_end(x, ntok + 1, 2 * ntok);
}

/* Multiplies the reduced pair of ntok > 1 tokens per tree in *x on the left
 * by letter g; returns the product's token count.  `left` is the pair's
 * left_end, or 0 to find it here. */
static int
left_letter(Bits *x, int ntok, int g, int left)
{
    int ab = g & LETTER_AB;
    /* N, the node rotated, at bit n, with p leaves before it; A, as in
     * ((A B) C) and (A (B C)), ends before bit a_end */
    int n = ntok, p = 0, a_end = 0;
    if ((g & LETTER_RIGHT || !ab) && !left)
        left = left_end(*x, ntok);
    if (g & LETTER_RIGHT) {
        n = left;
        p = (n - ntok) / 2;
    }
    /* grow N and its child on the rotated side where they are leaves: N,
     * and its right child for x0 and x1, only as the last leaf; its left
     * child for x0^-1 and x1^-1 as leaf p */
    int r = -1, d = ntok - 1, k = 2;
    unsigned v = 2;
    if (!bit_at(*x, n)) {
        r = n;
        v = ab ? 0xC : 0xA;
        k = 4;
        a_end = n + 2;
    }
    else if (ab) {
        if (!bit_at(*x, n + 1)) {
            r = n + 1;
            d = leaf_bit(*x, p);
        }
    }
    else {
        a_end = g & LETTER_RIGHT ? subtree_end(*x, n + 1, 2 * ntok) : left;
        if (!bit_at(*x, a_end))
            r = a_end;
    }
    if (r >= 0) {
        *x = insert_bits(insert_bits(*x, r, k, v), d, k, v);
        ntok += k;
        n += k;
        a_end += k;
    }
    /* rotate, and cancel the caret that it may make common, then N */
    int c, j;
    if (ab) {
        a_end = subtree_end(*x, n + 2, 2 * ntok);
        *x = move_caret(*x, n + 1, a_end, 1);
        c = a_end - 1;
        j = p + (a_end - n - 1) / 2;
    }
    else {
        *x = move_caret(*x, n + 1, a_end + 1, 0);
        c = n + 1;
        j = p;
    }
    /* a caret over two leaves is 1 0 0 */
    if (!(*x << (c + 1) >> 126) && cancel(x, c, j)) {
        ntok -= 2;
        n -= 2;
        if (!(*x << (n + 1) >> 126) && cancel(x, n, p))
            ntok -= 2;
    }
    if (ntok > 3)
        return ntok;
    /* a pair of two leaves is e */
    *x = 0;
    return 1;
}

/* The tokens of the key s[0:len], of ntok <= FAST_TOKENS tokens per tree. */
static Bits
load_bits(const unsigned char *s, Py_ssize_t len)
{
    unsigned char b[16] = {0};
    memcpy(b, s + 3, len - 3);
    return (Bits)load_be64(b) << 64 | load_be64(b + 8);
}

/* Checks the padding and the two trees of a key that load_bits loaded, as
 * unpack does. */
static int
check_bits(Bits x, int ntok)
{
    if (x & ALL_BITS >> 2 * ntok)
        return fail("tree-pair key has nonzero padding bits");
    if (subtree_end(x, 0, ntok) != ntok || subtree_end(x, ntok, 2 * ntok) != 2 * ntok)
        return fail("tree-pair key does not hold two complete trees");
    return 0;
}

/* Bit j is set for each leaf j of the tree in bits [start, start + ntok)
 * of x that follows a caret and is followed by a leaf, as in
 * sibling_flags. */
static uint64_t
sibling_mask(Bits x, int start, int ntok)
{
    int end = start + ntok, leaf = 0;
    unsigned prev = 0;
    uint64_t mask = 0;
    for (int i = start; i < end; i += 8) {
        unsigned v = byte_at(x, i), next = 1;
        if (end - i > 8)
            next = bit_at(x, i + 8);
        else
            /* the tree's last token is a leaf with no leaf after it */
            v |= 0xFF >> (end - i);
        unsigned e = SIBLINGS[prev << 9 | v << 1 | next];
        mask |= (uint64_t)(e & 0xFF) << leaf;
        leaf += e >> 8;
        prev = v & 1;
    }
    return mask;
}

static int
is_reduced(Bits x, int ntok)
{
    return !(sibling_mask(x, 0, ntok) & sibling_mask(x, ntok, ntok));
}

/* Checks that the key s[0:len] is canonical: well formed, as unpack checks
 * it, and reduced.  Returns its leaf count or -1; buf is scratch for a key
 * of more than FAST_TOKENS tokens per tree. */
static int
check_key(const unsigned char *s, Py_ssize_t len, Buf *buf)
{
    int nl = key_leaves(s, len), ntok = 2 * nl - 1, reduced;
    if (nl < 0)
        return -1;
    if (ntok <= FAST_TOKENS) {
        Bits x = load_bits(s, len);
        if (check_bits(x, ntok) < 0)
            return -1;
        reduced = is_reduced(x, ntok);
    }
    else {
        /* reduce cancels a common caret of the pair, if it has one */
        Pair k;
        size_t room = token_room(nl);
        if (reserve(buf, room + 2 * (size_t)nl) == NULL || unpack(s, len, buf, &k) < 0)
            return -1;
        reduced = reduce(buf->p, buf->p + ntok, ntok, buf->p + room) == ntok;
    }
    return reduced ? nl : fail("tree-pair key is not reduced");
}

/* Packs the pair in x, of ntok tokens per tree, into out at byte `at`;
 * returns the key length or -1. */
static Py_ssize_t
pack_bits(Bits x, int ntok, Buf *out, size_t at)
{
    int nl = (ntok + 1) / 2;
    unsigned char *s = reserve(out, at + 19);
    if (s == NULL)
        return -1;
    s += at;
    s[0] = KEY_TAG;
    s[1] = (unsigned char)(nl >> 8);
    s[2] = (unsigned char)(nl & 0xFF);
    store_be64(s + 3, (uint64_t)(x >> 64));
    store_be64(s + 11, (uint64_t)x);
    return packed_size(ntok);
}

/* -- level store ------------------------------------------------------------ */

/* A slot is 0 when empty, else the top 24 bits of the key's hash over
 * (record offset + 1) in the low 40 bits. */
#define OFFSET_BITS 40
#define OFFSET_MASK ((UINT64_C(1) << OFFSET_BITS) - 1)
#define COUNT_MAX UINT32_MAX
/* a record's first byte is its key length, or LONG_KEY before a u16 length */
#define LONG_KEY 255

typedef struct {
    PyObject_HEAD
    unsigned char *arena;        /* records in insertion order */
    size_t used, cap;            /* arena bytes in use and allocated */
    uint64_t *slots;             /* NULL while the table is empty */
    size_t mask;                 /* slot count - 1 */
    size_t filled;               /* slots in use, dead records included */
    Py_ssize_t live;             /* records with a nonzero count */
    size_t dead;                 /* records with count 0, still in the arena */
    uint64_t version;            /* bumped by every change, for iterators */
} Level;

static PyTypeObject LevelType, LevelIterType;

/* One record: its key and the address of its count (u32, native order,
 * unaligned). */
typedef struct {
    const unsigned char *key;
    size_t len, size;
    unsigned char *count;
} Rec;

static Rec
record(unsigned char *r)
{
    Rec x;
    size_t head = 1;
    x.len = r[0];
    if (x.len == LONG_KEY) {
        x.len = (size_t)r[1] | (size_t)r[2] << 8;
        head = 3;
    }
    x.key = r + head;
    x.count = r + head + x.len;
    x.size = head + x.len + 4;
    return x;
}

static uint32_t
get_count(const unsigned char *p)
{
    uint32_t c;
    memcpy(&c, p, 4);
    return c;
}

static void
set_count(unsigned char *p, uint32_t c)
{
    memcpy(p, &c, 4);
}

static Rec
slot_record(const Level *lv, uint64_t s)
{
    return record(lv->arena + (s & OFFSET_MASK) - 1);
}

/* The bytes k[0:8] as a little-endian number. */
static uint64_t
load_le64(const unsigned char *k)
{
    return (uint64_t)k[0] | (uint64_t)k[1] << 8 | (uint64_t)k[2] << 16 | (uint64_t)k[3] << 24
           | (uint64_t)k[4] << 32 | (uint64_t)k[5] << 40 | (uint64_t)k[6] << 48
           | (uint64_t)k[7] << 56;
}

static uint64_t
hash_key(const unsigned char *k, size_t n)
{
    uint64_t h = UINT64_C(0x9E3779B97F4A7C15) * (n + 1), w = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        h = (h ^ load_le64(k + i)) * UINT64_C(0xBF58476D1CE4E5B9);
        h ^= h >> 31;
    }
    /* the last n - i < 8 bytes, read as the top of the last eight when
     * there are eight */
    if (i < n && n >= 8)
        w = load_le64(k + n - 8) >> 8 * (8 - (n - i));
    else
        for (size_t j = n; j > i; j--)
            w = w << 8 | k[j - 1];
    h = (h ^ w) * UINT64_C(0x94D049BB133111EB);
    h ^= h >> 29;
    h *= UINT64_C(0xBF58476D1CE4E5B9);
    return h ^ h >> 32;
}

/* Index of the slot that holds key k[0:n] (hash h), or of the empty slot
 * where it would go.  The table always has an empty slot. */
static size_t
find_slot(const Level *lv, const unsigned char *k, size_t n, uint64_t h)
{
    uint64_t tag = h >> OFFSET_BITS;
    size_t i = (size_t)h & lv->mask;
    for (;; i = (i + 1) & lv->mask) {
        uint64_t s = lv->slots[i];
        if (s == 0)
            return i;
        if (s >> OFFSET_BITS == tag) {
            Rec r = slot_record(lv, s);
            if (r.len == n && memcmp(r.key, k, n) == 0)
                return i;
        }
    }
}

/* The live record of key k[0:n], or NULL. */
static unsigned char *
find_count(const Level *lv, const unsigned char *k, size_t n, uint64_t h)
{
    if (lv->slots == NULL)
        return NULL;
    uint64_t s = lv->slots[find_slot(lv, k, n, h)];
    if (s == 0)
        return NULL;
    unsigned char *c = slot_record(lv, s).count;
    return get_count(c) ? c : NULL;
}

/* The count of key k[0:n], whose hash_key is h. */
static uint32_t
level_get(const Level *lv, const unsigned char *k, size_t n, uint64_t h)
{
    unsigned char *c = find_count(lv, k, n, h);
    return c == NULL ? 0 : get_count(c);
}

/* Smallest table, a power of two, that holds k keys at load <= 3/4. */
static size_t
slots_for(size_t k)
{
    size_t size = 8;
    while (size / 4 * 3 < k + 1)
        size *= 2;
    return size;
}

static void
level_clear(Level *lv)
{
    PyMem_Free(lv->arena);
    PyMem_Free(lv->slots);
    lv->arena = NULL;
    lv->slots = NULL;
    lv->used = lv->cap = lv->mask = lv->filled = lv->dead = 0;
    lv->live = 0;
    lv->version++;
}

/* Indexes the live records in a new table of nslots slots.  The old table
 * goes first, so only one is ever allocated; if the new one cannot be had,
 * the level is left empty and MemoryError raised. */
static int
rebuild(Level *lv, size_t nslots)
{
    PyMem_Free(lv->slots);
    lv->slots = PyMem_Calloc(nslots, sizeof(uint64_t));
    if (lv->slots == NULL) {
        level_clear(lv);
        PyErr_NoMemory();
        return -1;
    }
    lv->mask = nslots - 1;
    lv->filled = 0;
    for (size_t off = 0; off < lv->used;) {
        Rec r = record(lv->arena + off);
        if (get_count(r.count)) {
            uint64_t h = hash_key(r.key, r.len);
            size_t i = (size_t)h & lv->mask;
            while (lv->slots[i])
                i = (i + 1) & lv->mask;
            lv->slots[i] = (h >> OFFSET_BITS) << OFFSET_BITS | (off + 1);
            lv->filled++;
        }
        off += r.size;
    }
    return 0;
}

/* Appends the record (k[0:n], c); returns its offset + 1, or 0 on failure.
 * n <= 0xFFFF: a key comes from a checkpoint body, which gives its length in
 * a u16, or from another Level, or has been checked or packed, and so has
 * at most MAX_LEAVES leaves. */
static uint64_t
append(Level *lv, const unsigned char *k, size_t n, uint32_t c)
{
    size_t head = n < LONG_KEY ? 1 : 3, size = head + n + 4;
    if (lv->used + size > lv->cap) {
        size_t cap = lv->cap < 4096 ? 4096 : lv->cap + lv->cap / 2;
        if (cap < lv->used + size)
            cap = lv->used + size;
        unsigned char *p = cap < OFFSET_MASK ? PyMem_Realloc(lv->arena, cap) : NULL;
        if (p == NULL) {
            PyErr_NoMemory();
            return 0;
        }
        lv->arena = p;
        lv->cap = cap;
    }
    unsigned char *r = lv->arena + lv->used;
    if (head == 1) {
        r[0] = (unsigned char)n;
    }
    else {
        r[0] = LONG_KEY;
        r[1] = (unsigned char)(n & 0xFF);
        r[2] = (unsigned char)(n >> 8);
    }
    memcpy(r + head, k, n);
    set_count(r + head + n, c);
    uint64_t at = lv->used + 1;
    lv->used += size;
    lv->live++;
    return at;
}

static int
count_overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "a level store count would pass 2**32 - 1");
    return -1;
}

/* Adds c >= 1 to the count of key k[0:n], whose hash_key is h; a new key
 * goes after all
 * others, as in a dict.  Only a Level still being built is put to (the
 * output of apply_left, and the new Level of load_entries), and records die
 * only in subtract_scaled, so an occupied slot always indexes a live
 * record. */
static int
level_put(Level *lv, const unsigned char *k, size_t n, uint64_t h, uint64_t c)
{
    uint64_t *slot = NULL;
    if (c > COUNT_MAX)
        return count_overflow();
    if (lv->slots != NULL) {
        slot = lv->slots + find_slot(lv, k, n, h);
        if (*slot) {
            unsigned char *cp = slot_record(lv, *slot).count;
            uint64_t old = get_count(cp);
            if (c > COUNT_MAX - old)
                return count_overflow();
            set_count(cp, (uint32_t)(old + c));
            return 0;
        }
    }
    uint64_t at = append(lv, k, n, (uint32_t)c);
    if (at == 0)
        return -1;
    if (slot == NULL || (lv->filled + 1) * 4 > (lv->mask + 1) * 3)
        return rebuild(lv, slots_for(lv->live));
    *slot = (h >> OFFSET_BITS) << OFFSET_BITS | at;
    lv->filled++;
    return 0;
}

/* Drops the dead records, keeping the order of the others, gives the spare
 * arena back and reindexes at the size the live keys need. */
static int
compact(Level *lv)
{
    size_t to = 0;
    for (size_t off = 0; off < lv->used;) {
        Rec r = record(lv->arena + off);
        size_t size = r.size;
        if (get_count(r.count)) {
            memmove(lv->arena + to, lv->arena + off, size);
            to += size;
        }
        off += size;
    }
    lv->used = to;
    lv->dead = 0;
    if (to > 0 && to < lv->cap) {
        /* a failed shrink keeps the larger block */
        unsigned char *p = PyMem_Realloc(lv->arena, to);
        if (p != NULL) {
            lv->arena = p;
            lv->cap = to;
        }
    }
    return rebuild(lv, slots_for(lv->live));
}

static Level *
level_alloc(void)
{
    Level *lv = PyObject_New(Level, &LevelType);
    if (lv == NULL)
        return NULL;
    lv->arena = NULL;
    lv->slots = NULL;
    lv->used = lv->cap = lv->mask = lv->filled = lv->dead = 0;
    lv->live = 0;
    lv->version = 0;
    return lv;
}

/* vec as a Level of this module (a new reference), or NULL with TypeError
 * naming the function. */
static Level *
as_level(const char *name, PyObject *vec)
{
    if (Py_IS_TYPE(vec, &LevelType))
        return (Level *)Py_NewRef(vec);
    PyErr_Format(PyExc_TypeError, "%s needs a Level, not %.100s", name,
                 Py_TYPE(vec)->tp_name);
    return NULL;
}

static PyObject *
long_from_u128(unsigned __int128 v)
{
    uint64_t hi = (uint64_t)(v >> 64), lo = (uint64_t)v;
    if (hi == 0)
        return PyLong_FromUnsignedLongLong(lo);
    PyObject *h = PyLong_FromUnsignedLongLong(hi), *l = NULL, *s = NULL, *out = NULL;
    PyObject *shift = PyLong_FromLong(64);
    if (h && shift && (s = PyNumber_Lshift(h, shift)) != NULL
        && (l = PyLong_FromUnsignedLongLong(lo)) != NULL)
        out = PyNumber_Or(s, l);
    Py_XDECREF(h);
    Py_XDECREF(l);
    Py_XDECREF(s);
    Py_XDECREF(shift);
    return out;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* Steps *off to the next live record, which goes to *r; 0 at the end. */
static int
next_live(const Level *lv, size_t *off, Rec *r)
{
    while (*off < lv->used) {
        *r = record(lv->arena + *off);
        *off += r->size;
        if (get_count(r->count))
            return 1;
    }
    return 0;
}

/* -- Level: lookup, size and repr ------------------------------------------ */

static void
level_dealloc(Level *lv)
{
    PyMem_Free(lv->arena);
    PyMem_Free(lv->slots);
    PyObject_Free(lv);
}

static Py_ssize_t
level_len(Level *lv)
{
    return lv->live;
}

/* The count of a key, or the default when it is absent or not bytes. */
static PyObject *
level_get_method(Level *lv, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_Format(PyExc_TypeError, "get() takes 1 or 2 arguments (%zd given)", nargs);
        return NULL;
    }
    uint32_t c = 0;
    if (PyBytes_Check(args[0])) {
        const unsigned char *k = (const unsigned char *)PyBytes_AS_STRING(args[0]);
        Py_ssize_t n = PyBytes_GET_SIZE(args[0]);
        c = level_get(lv, k, n, hash_key(k, n));
    }
    if (c)
        return PyLong_FromUnsignedLong(c);
    return Py_NewRef(nargs == 2 ? args[1] : Py_None);
}

static PyObject *
level_repr(Level *lv)
{
    return PyUnicode_FromFormat("<Level with %zd keys>", lv->live);
}

static PyObject *
level_sizeof(Level *lv, PyObject *unused)
{
    size_t slots = lv->slots == NULL ? 0 : (lv->mask + 1) * sizeof(uint64_t);
    return PyLong_FromSize_t(sizeof(Level) + lv->cap + slots);
}

/* -- Level: iteration ------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    Level *lv;
    size_t pos;
    uint64_t version;
    int items;                   /* yield (key, count) pairs, not keys */
} LevelIter;

static PyObject *
level_iter_kind(Level *lv, int items)
{
    LevelIter *it = PyObject_New(LevelIter, &LevelIterType);
    if (it == NULL)
        return NULL;
    it->lv = (Level *)Py_NewRef(lv);
    it->pos = 0;
    it->version = lv->version;
    it->items = items;
    return (PyObject *)it;
}

static PyObject *
level_iter(Level *lv)
{
    return level_iter_kind(lv, 0);
}

static PyObject *
level_items(Level *lv, PyObject *unused)
{
    return level_iter_kind(lv, 1);
}

static void
iter_dealloc(LevelIter *it)
{
    Py_DECREF(it->lv);
    PyObject_Free(it);
}

static PyObject *
iter_next(LevelIter *it)
{
    Level *lv = it->lv;
    if (lv->version != it->version) {
        PyErr_SetString(PyExc_RuntimeError, "level store changed during iteration");
        return NULL;
    }
    Rec r;
    if (!next_live(lv, &it->pos, &r))
        return NULL;
    PyObject *key = PyBytes_FromStringAndSize((const char *)r.key, r.len);
    if (!it->items || key == NULL)
        return key;
    return Py_BuildValue("(Nk)", key, (unsigned long)get_count(r.count));
}

/* -- Level: the per-level passes -------------------------------------------- */

/* Takes d from the count of key k[0:n]; a count that would go negative
 * raises ValueError. */
static int
take(Level *lv, const unsigned char *k, size_t n, unsigned __int128 d)
{
    if (d == 0)
        return 0;
    unsigned char *cp = find_count(lv, k, n, hash_key(k, n));
    uint32_t old = cp == NULL ? 0 : get_count(cp);
    if (d > old) {
        PyErr_SetString(PyExc_ValueError, "negative coefficient: subtraction did not cancel");
        return -1;
    }
    set_count(cp, (uint32_t)(old - d));
    if (old == d) {
        lv->live--;
        lv->dead++;
    }
    return 0;
}

static PyObject *
level_subtract_scaled(Level *lv, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("subtract_scaled", nargs, 2) < 0)
        return NULL;
    unsigned long long factor = PyLong_AsUnsignedLongLong(args[1]);
    if (factor == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    Level *sub = as_level("subtract_scaled", args[0]);
    if (sub == NULL)
        return NULL;
    lv->version++;
    size_t off = 0;
    Rec r;
    int rc = 0;
    while (rc == 0 && next_live(sub, &off, &r))
        rc = take(lv, r.key, r.len, (unsigned __int128)factor * get_count(r.count));
    Py_DECREF(sub);
    if (rc < 0)
        return NULL;
    /* compacting rehashes every key, so it runs only when it frees an
     * eighth of the records or half the table */
    if ((lv->dead * 8 > (size_t)lv->live || (lv->dead && slots_for(lv->live) <= lv->mask))
        && compact(lv) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
level_squared_two_norm(Level *lv, PyObject *unused)
{
    unsigned __int128 sum = 0;
    size_t off = 0;
    Rec r;
    while (next_live(lv, &off, &r)) {
        uint64_t c = get_count(r.count);
        sum += c * c;
    }
    return long_from_u128(sum);
}

static PyObject *
level_coefficient_sum(Level *lv, PyObject *unused)
{
    unsigned __int128 sum = 0;
    size_t off = 0;
    Rec r;
    while (next_live(lv, &off, &r))
        sum += get_count(r.count);
    return long_from_u128(sum);
}

/* qsort runs no Python code, so the arena it compares in can be global. */
static unsigned char *SortArena;

/* The order of Python bytes: memcmp, then a key before its extensions. */
static int
compare_keys(const unsigned char *a, size_t an, const unsigned char *b, size_t bn)
{
    int c = memcmp(a, b, an < bn ? an : bn);
    return c ? c : (an > bn) - (an < bn);
}

static int
compare_records(const void *a, const void *b)
{
    Rec x = record(SortArena + *(const size_t *)a), y = record(SortArena + *(const size_t *)b);
    return compare_keys(x.key, x.len, y.key, y.len);
}

static int
count_bytes(uint32_t c)
{
    return c >> 24 ? 4 : c >> 16 ? 3 : c >> 8 ? 2 : 1;
}

/* The checkpoint body: per entry in key order, key length u16, key, sign u8
 * (0), magnitude length u32 (little endian), magnitude big endian. */
static PyObject *
level_dump_entries(Level *lv, PyObject *unused)
{
    size_t *order = PyMem_Malloc((lv->live + 1) * sizeof(size_t)), k = 0, total = 0;
    size_t off = 0;
    Rec r;
    if (order == NULL)
        return PyErr_NoMemory();
    while (next_live(lv, &off, &r)) {
        order[k++] = off - r.size;
        total += 7 + r.len + count_bytes(get_count(r.count));
    }
    SortArena = lv->arena;
    qsort(order, k, sizeof(size_t), compare_records);
    PyObject *body = PyBytes_FromStringAndSize(NULL, total);
    if (body != NULL) {
        unsigned char *p = (unsigned char *)PyBytes_AS_STRING(body);
        for (size_t i = 0; i < k; i++) {
            Rec e = record(lv->arena + order[i]);
            uint32_t c = get_count(e.count);
            int nb = count_bytes(c);
            *p++ = (unsigned char)(e.len & 0xFF);
            *p++ = (unsigned char)(e.len >> 8);
            memcpy(p, e.key, e.len);
            p += e.len;
            memcpy(p, (unsigned char[5]){0, (unsigned char)nb, 0, 0, 0}, 5);
            p += 5;
            for (int b = nb - 1; b >= 0; b--)
                *p++ = (unsigned char)(c >> (8 * b));
        }
    }
    PyMem_Free(order);
    return body;
}

/* load_entries(body, count): the Level that a checkpoint body holds, each
 * key checked by check_key. */
static PyObject *
load_entries(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("load_entries", nargs, 2) < 0)
        return NULL;
    unsigned long long count = PyLong_AsUnsignedLongLong(args[1]);
    if (count == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(args[0], &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *p = view.buf, *end = p + view.len, *last = NULL;
    size_t last_n = 0;
    const char *error = NULL;
    Buf scratch = {0};
    Level *lv = level_alloc();
    /* an entry takes at least 8 bytes, which bounds a false count */
    if (lv == NULL || rebuild(lv, slots_for(Py_MIN(count, (size_t)view.len / 8))) < 0)
        goto fail;
    for (unsigned long long i = 0; i < count; i++) {
        if (end - p < 2) {
            error = "checkpoint is truncated";
            break;
        }
        size_t n = (size_t)p[0] | (size_t)p[1] << 8;
        const unsigned char *key = p + 2;
        if ((size_t)(end - key) < n + 5) {
            error = "checkpoint is truncated";
            break;
        }
        if (last != NULL && compare_keys(last, last_n, key, n) >= 0) {
            error = "checkpoint keys are not in strictly increasing order";
            break;
        }
        if (check_key(key, n, &scratch) < 0)
            goto fail;
        last = key;
        last_n = n;
        p = key + n;
        int negative = p[0] != 0;
        uint32_t nb = (uint32_t)p[1] | (uint32_t)p[2] << 8 | (uint32_t)p[3] << 16
                      | (uint32_t)p[4] << 24;
        p += 5;
        if ((size_t)(end - p) < nb) {
            error = "checkpoint is truncated";
            break;
        }
        uint64_t c = 0;
        for (uint32_t b = 0; b < nb && c <= COUNT_MAX; b++)
            c = c << 8 | *p++;
        if (negative || c == 0 || c > COUNT_MAX) {
            error = "checkpoint count is not in the level store's range 1..2**32-1";
            break;
        }
        if (level_put(lv, key, n, hash_key(key, n), c) < 0)
            goto fail;
    }
    if (error == NULL && p != end)
        error = "trailing bytes after checkpoint entries";
    if (error != NULL)
        PyErr_SetString(PyExc_ValueError, error);
fail:
    if (PyErr_Occurred())
        Py_CLEAR(lv);
    PyMem_Free(scratch.p);
    PyBuffer_Release(&view);
    return (PyObject *)lv;
}

static PyMethodDef level_methods[] = {
    {"get", (PyCFunction)(void (*)(void))level_get_method, METH_FASTCALL,
     "get(key, default=None)\n--\n\nThe count of key, or default."},
    {"items", (PyCFunction)level_items, METH_NOARGS,
     "Iterator over (key, count) pairs in insertion order."},
    {"subtract_scaled", (PyCFunction)(void (*)(void))level_subtract_scaled, METH_FASTCALL,
     "subtract_scaled(sub, factor)\n--\n\n"
     "self -= factor * sub for a Level sub; a count that would go negative "
     "raises ValueError."},
    {"squared_two_norm", (PyCFunction)level_squared_two_norm, METH_NOARGS,
     "The sum of the squared counts."},
    {"coefficient_sum", (PyCFunction)level_coefficient_sum, METH_NOARGS,
     "The sum of the counts."},
    {"dump_entries", (PyCFunction)level_dump_entries, METH_NOARGS,
     "The checkpoint body: the entries sorted by key."},
    {"__sizeof__", (PyCFunction)level_sizeof, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMappingMethods level_as_mapping = {
    .mp_length = (lenfunc)level_len,
};

static PyTypeObject LevelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "tgf._treepair.Level",
    .tp_basicsize = sizeof(Level),
    .tp_dealloc = (destructor)level_dealloc,
    .tp_repr = (reprfunc)level_repr,
    .tp_as_mapping = &level_as_mapping,
    .tp_hash = PyObject_HashNotImplemented,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Keys to counts in 1..2**32-1 in insertion order; iterates over the keys.",
    .tp_iter = (getiterfunc)level_iter,
    .tp_methods = level_methods,
};

static PyTypeObject LevelIterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "tgf._treepair.LevelIterator",
    .tp_basicsize = sizeof(LevelIter),
    .tp_dealloc = (destructor)iter_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)iter_next,
};

/* -- the batch driver ------------------------------------------------------- */

/* Scratch for compose_keys and invert_key, which run no Python code while
 * they use it. */
static Buf KA, KB, INDEX, WORK, KEY;

static PyObject *
compose_keys(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Pair a, b;
    const unsigned char *sa, *sb;
    Py_ssize_t la, lb;
    if (check_nargs("compose_keys", nargs, 2) < 0)
        return NULL;
    if (key_bytes(args[0], &sa, &la) < 0 || unpack(sa, la, &KA, &a) < 0
        || key_bytes(args[1], &sb, &lb) < 0 || unpack(sb, lb, &KB, &b) < 0)
        return NULL;
    if (a.nl == 1)
        return Py_NewRef(args[1]);
    if (b.nl == 1)
        return Py_NewRef(args[0]);
    const int *ix = index_pair(&b, &INDEX);
    Py_ssize_t n = ix == NULL ? -1 : product(&a, &b, ix, &WORK, &KEY);
    return n < 0 ? NULL : PyBytes_FromStringAndSize((const char *)KEY.p, n);
}

static PyObject *
invert_key(PyObject *module, PyObject *key)
{
    Pair a;
    const unsigned char *s;
    Py_ssize_t len;
    if (key_bytes(key, &s, &len) < 0 || unpack(s, len, &KA, &a) < 0)
        return NULL;
    int ntok = 2 * a.nl - 1;
    unsigned char *t = reserve(&WORK, 2 * (size_t)ntok + 7);
    if (t == NULL)
        return NULL;
    memcpy(t, a.rng, ntok);
    memcpy(t + ntok, a.dom, ntok);
    Py_ssize_t n = pack_into(t, ntok, &KEY);
    return n < 0 ? NULL : PyBytes_FromStringAndSize((const char *)KEY.p, n);
}

static int
is_identity(const unsigned char *s, Py_ssize_t len)
{
    return len == PyBytes_GET_SIZE(IdentityKey)
           && memcmp(s, PyBytes_AS_STRING(IdentityKey), len) == 0;
}

/* A product of an item: its key, which is at byte `at` of the item's keys
 * buffer while `key` is NULL, and the key's hash_key. */
typedef struct {
    const unsigned char *key;
    size_t at;
    Py_ssize_t len;
    uint64_t hash;
} Product;

/* An item of vec, the key key[0:klen] with count c and hash_key hash, and
 * its products. */
typedef struct {
    const unsigned char *key;
    Py_ssize_t klen;
    uint64_t c, hash;
    Product *prods;              /* one per factor */
    Buf keys;
} Item;

/* One pass of vec against a list of factors, shared by apply_left and
 * inner. */
typedef struct {
    Level *vec;                  /* the Level walked */
    Level *out;                  /* apply_left's new level; NULL for inner */
    uint64_t n_identity;         /* apply_left's identity factors, only counted */
    unsigned __int128 *wide;     /* inner's sums, one per word */
    const unsigned char **fkeys; /* the factors composed, borrowed from a tuple */
    Py_ssize_t *flens;
    Pair *pairs;                 /* their unpacked trees */
    Letters *words;              /* their letters, for those that are words */
    Py_ssize_t n, n_words, n_general;
    Item items[2];               /* one is built while the other is used */
    Buf keybuf, index, work, prod;
} Batch;

/* Splits factor f of the batch into letters when it is one or two: g when
 * g^-1 f = e, g h when g^-1 f = h.  A word of two letters has at most 5
 * leaves, so only factors of up to 8 are tried, whose products with a
 * letter cannot fail. */
static int
split_word(Batch *bt, Py_ssize_t f)
{
    Letters *word = &bt->words[f];
    word->n = 0;
    if (bt->pairs[f].nl == 1 || bt->pairs[f].nl > 8)
        return 0;
    const int *ix = index_pair(&bt->pairs[f], &bt->index);
    if (ix == NULL)
        return -1;
    for (int g = 0; g < N_LETTERS; g++) {
        Py_ssize_t n = product(&LETTER_PAIR[g ^ LETTER_AB], &bt->pairs[f], ix,
                               &bt->work, &bt->prod);
        if (n < 0)
            return -1;
        word->g[1] = g;
        if (is_identity(bt->prod.p, n)) {
            word->n = 1;
            word->g[0] = g;
            return 0;
        }
        for (int h = 0; h < N_LETTERS; h++)
            if (n == LETTER_KEY_LEN[h] && memcmp(bt->prod.p, LETTER_KEY[h], n) == 0) {
                word->n = 2;
                word->g[0] = h;
                return 0;
            }
    }
    return 0;
}

/* The products g * x of one reduced pair x by letters g, each made once:
 * bit g of `made` is set once g * x, of ntok[g] tokens per tree, is in
 * x[g].  `left` is the left_end of x. */
typedef struct {
    unsigned made;
    int left;
    Bits x[N_LETTERS];
    int ntok[N_LETTERS];
} FirstLetters;

/* Packs word * x into out at byte `at`, for the reduced pair x of ntok > 1
 * tokens per tree, letter by letter, taking its first letter's product
 * from `first`; returns the key length or -1. */
static Py_ssize_t
left_word(Bits x, int ntok, const Letters *word, FirstLetters *first, Buf *out, size_t at)
{
    int g = word->g[0];
    if (!(first->made >> g & 1)) {
        first->x[g] = x;
        first->ntok[g] = left_letter(&first->x[g], ntok, g, first->left);
        first->made |= 1u << g;
    }
    x = first->x[g];
    ntok = first->ntok[g];
    if (word->n == 2) {
        g = word->g[1];
        if (ntok > 1) {
            ntok = left_letter(&x, ntok, g, 0);
        }
        else {
            x = LETTER_BITS[g];
            ntok = 2 * LETTER_PAIR[g].nl - 1;
        }
    }
    return pack_bits(x, ntok, out, at);
}

/* Builds the products of item `it` in the pure loops' order and fetches
 * the table slots that they need.  The key is canonical, as every key of
 * a Level is, so a word takes left_word on every key but e that fits;
 * other factors, and words on a larger key, take product. */
static int
build_item(Batch *bt, Item *it)
{
    const unsigned char *key = it->key;
    Py_ssize_t klen = it->klen;
    Pair k;
    const int *ix = NULL;
    Bits x = 0;
    int nl = key[1] << 8 | key[2], ntok = 2 * nl - 1;
    int fast = bt->n_words && nl > 1 && ntok <= FAST_TOKENS;
    if (fast)
        x = load_bits(key, klen);
    if (nl > 1 && (bt->n_general || (bt->n_words && !fast))) {
        if (reserve(&bt->keybuf, token_room(nl)) == NULL)
            return -1;
        unpack_tokens(key, klen, nl, bt->keybuf.p, &k);
        if ((ix = index_pair(&k, &bt->index)) == NULL)
            return -1;
    }
    size_t at = 0;
    FirstLetters first = {.left = fast ? left_end(x, ntok) : 0};
    for (Py_ssize_t f = 0; f < bt->n; f++) {
        /* as in compose_keys, a product with the identity is the other
         * factor as it is */
        Product *pr = &it->prods[f];
        pr->key = key;
        pr->len = klen;
        if (bt->pairs[f].nl > 1 && nl == 1) {
            pr->key = bt->fkeys[f];
            pr->len = bt->flens[f];
        }
        else if (bt->words[f].n && fast) {
            if ((pr->len = left_word(x, ntok, &bt->words[f], &first, &it->keys, at)) < 0)
                return -1;
            pr->key = NULL;
        }
        else if (bt->pairs[f].nl > 1) {
            Py_ssize_t n = product(&bt->pairs[f], &k, ix, &bt->work, &bt->prod);
            if (n < 0 || reserve(&it->keys, at + n) == NULL)
                return -1;
            memcpy(it->keys.p + at, bt->prod.p, n);
            pr->len = n;
            pr->key = NULL;
        }
        pr->at = at;
        at += pr->key == NULL ? pr->len : 0;
    }
    Level *lv = bt->out != NULL ? bt->out : bt->vec;
    if (bt->n_identity) {
        it->hash = hash_key(key, klen);
        if (lv->slots != NULL)
            __builtin_prefetch(lv->slots + (it->hash & lv->mask));
    }
    for (Py_ssize_t f = 0; f < bt->n; f++) {
        Product *pr = &it->prods[f];
        if (pr->key == NULL)
            pr->key = it->keys.p + pr->at;
        pr->hash = hash_key(pr->key, pr->len);
        if (lv->slots != NULL)
            __builtin_prefetch(lv->slots + (pr->hash & lv->mask));
    }
    return 0;
}

/* Uses the products of item `it`: apply_left adds c to out[p] for each
 * product p, after the identity factors' n_identity * c to out[key];
 * inner adds c * vec[p] to the sum of p's word. */
static int
use_item(Batch *bt, const Item *it)
{
    if (bt->out == NULL) {
        for (Py_ssize_t f = 0; f < bt->n; f++) {
            const Product *pr = &it->prods[f];
            bt->wide[f] += (unsigned __int128)it->c
                           * level_get(bt->vec, pr->key, pr->len, pr->hash);
        }
        return 0;
    }
    if (bt->n_identity
        && level_put(bt->out, it->key, it->klen, it->hash, bt->n_identity * it->c) < 0)
        return -1;
    for (Py_ssize_t f = 0; f < bt->n; f++) {
        const Product *pr = &it->prods[f];
        if (level_put(bt->out, pr->key, pr->len, pr->hash, it->c) < 0)
            return -1;
    }
    return 0;
}

/* After an item failed to build, uses the item before it, whose error, if
 * it has one, comes first in the pure loops' order and is the one raised. */
static void
use_before_error(Batch *bt, const Item *it)
{
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *exc = PyErr_GetRaisedException();
    if (use_item(bt, it) < 0)
        Py_XDECREF(exc);
    else
        PyErr_SetRaisedException(exc);
#else
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (use_item(bt, it) < 0) {
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(tb);
    }
    else {
        PyErr_Restore(type, value, tb);
    }
#endif
}

/* The batch driver: apply_left(factors, vec) when inner is 0, else
 * inner(words, vec). */
static PyObject *
batch(const char *name, PyObject *const *args, Py_ssize_t nargs, int inner)
{
    if (check_nargs(name, nargs, 2) < 0)
        return NULL;
    Batch bt = {0};
    if ((bt.vec = as_level(name, args[1])) == NULL)
        return NULL;
    PyObject *factors = PySequence_Tuple(args[0]);
    if (factors == NULL) {
        Py_DECREF(bt.vec);
        return NULL;
    }
    Py_ssize_t nf = PyTuple_GET_SIZE(factors);
    size_t total = 0;
    Buf fbuf = {0};
    PyObject *result = NULL;

    bt.fkeys = PyMem_Malloc((nf + 1) * sizeof(*bt.fkeys));
    bt.flens = PyMem_Malloc((nf + 1) * sizeof(*bt.flens));
    bt.pairs = PyMem_Malloc((nf + 1) * sizeof(Pair));
    bt.words = PyMem_Malloc((nf + 1) * sizeof(Letters));
    bt.items[0].prods = PyMem_Malloc((nf + 1) * sizeof(Product));
    bt.items[1].prods = PyMem_Malloc((nf + 1) * sizeof(Product));
    bt.wide = PyMem_Calloc(nf + 1, sizeof(*bt.wide));
    if (bt.fkeys == NULL || bt.flens == NULL || bt.pairs == NULL || bt.words == NULL
        || bt.items[0].prods == NULL || bt.items[1].prods == NULL || bt.wide == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t f = 0; f < nf; f++) {
        const unsigned char *s;
        Py_ssize_t len;
        if (key_bytes(PyTuple_GET_ITEM(factors, f), &s, &len) < 0)
            goto done;
        if (!inner && is_identity(s, len)) {
            bt.n_identity++;
            continue;
        }
        /* a factor times e is the factor as it is, and a key of the new
         * level, so only a canonical one is taken */
        int nl = check_key(s, len, &bt.keybuf);
        if (nl < 0)
            goto done;
        total += token_room(nl);
        bt.fkeys[bt.n] = s;
        bt.flens[bt.n] = len;
        bt.pairs[bt.n++].nl = nl;
    }
    /* unpack every factor once, into one buffer sized up front */
    if (reserve(&fbuf, total + 1) == NULL)
        goto done;
    total = 0;
    for (Py_ssize_t f = 0; f < bt.n; f++) {
        unpack_tokens(bt.fkeys[f], bt.flens[f], bt.pairs[f].nl, fbuf.p + total, &bt.pairs[f]);
        total += token_room(bt.pairs[f].nl);
    }
    for (Py_ssize_t f = 0; f < bt.n; f++) {
        if (split_word(&bt, f) < 0)
            goto done;
        if (bt.words[f].n)
            bt.n_words++;
        else if (bt.pairs[f].nl > 1)
            bt.n_general++;
    }
    /* left-multiplying by one factor maps distinct elements to distinct
     * elements, so the new level holds at least as many keys as vec: its
     * table starts at that size and grows from there */
    if (!inner && ((bt.out = level_alloc()) == NULL
                   || (bt.n + bt.n_identity > 0 && bt.vec->live > 0
                       && rebuild(bt.out, slots_for(bt.vec->live)) < 0)))
        goto done;
    /* each item is built, and the table slots of its products fetched,
     * before the item before it is used, so that an item's table reads are
     * in flight while the next one is built */
    size_t off = 0;
    Rec r;
    Item *next = &bt.items[0], *ready = NULL;
    while (next_live(bt.vec, &off, &r)) {
        next->key = r.key;
        next->klen = r.len;
        next->c = get_count(r.count);
        if (build_item(&bt, next) < 0) {
            if (ready != NULL)
                use_before_error(&bt, ready);
            goto done;
        }
        if (ready != NULL && use_item(&bt, ready) < 0)
            goto done;
        ready = next;
        next = &bt.items[ready == &bt.items[0]];
    }
    if (ready != NULL && use_item(&bt, ready) < 0)
        goto done;
    if (!inner) {
        result = Py_NewRef(bt.out);
        goto done;
    }
    /* a list's unset items are NULL, which its dealloc skips */
    if ((result = PyList_New(nf)) == NULL)
        goto done;
    for (Py_ssize_t f = 0; f < nf; f++) {
        PyObject *sum = long_from_u128(bt.wide[f]);
        if (sum == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, f, sum);
    }
done:
    Py_DECREF(bt.vec);
    Py_XDECREF(bt.out);
    PyMem_Free(bt.fkeys);
    PyMem_Free(bt.flens);
    PyMem_Free(bt.pairs);
    PyMem_Free(bt.words);
    for (int i = 0; i < 2; i++) {
        PyMem_Free(bt.items[i].prods);
        PyMem_Free(bt.items[i].keys.p);
    }
    PyMem_Free(bt.wide);
    PyMem_Free(bt.keybuf.p);
    PyMem_Free(bt.index.p);
    PyMem_Free(bt.work.p);
    PyMem_Free(bt.prod.p);
    PyMem_Free(fbuf.p);
    Py_DECREF(factors);
    return result;
}

static PyObject *
apply_left(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return batch("apply_left", args, nargs, 0);
}

static PyObject *
inner(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return batch("inner", args, nargs, 1);
}

/* -- module ----------------------------------------------------------------- */

static int
init_letters(void)
{
    Buf key = {0};
    for (int g = 0; g < N_LETTERS; g++) {
        int ntok = (int)strlen(LETTER_TREES[g][0]);
        unsigned char *t = LETTER_TOKENS[g];
        for (int i = 0; i < ntok; i++) {
            t[i] = LETTER_TREES[g][0][i] == '1';
            t[ntok + i] = LETTER_TREES[g][1][i] == '1';
        }
        LETTER_PAIR[g] = (Pair){t, t + ntok, (ntok + 1) / 2};
        Py_ssize_t n = pack_into(t, ntok, &key);
        if (n < 0) {
            PyMem_Free(key.p);
            return -1;
        }
        memcpy(LETTER_KEY[g], key.p, n);
        LETTER_KEY_LEN[g] = n;
        LETTER_BITS[g] = load_bits(LETTER_KEY[g], n);
    }
    PyMem_Free(key.p);
    return 0;
}

static PyMethodDef methods[] = {
    {"compose_keys", (PyCFunction)(void (*)(void))compose_keys, METH_FASTCALL,
     "compose_keys(a, b)\n--\n\nCanonical key of the product a*b (right factor acts first)."},
    {"invert_key", invert_key, METH_O,
     "invert_key(a)\n--\n\nCanonical key of the inverse of a."},
    {"apply_left", (PyCFunction)(void (*)(void))apply_left, METH_FASTCALL,
     "apply_left(factors, vec)\n--\n\n"
     "Multiset product (sum of factors) . vec, multiplying on the left, as a Level."},
    {"inner", (PyCFunction)(void (*)(void))inner, METH_FASTCALL,
     "inner(words, vec)\n--\n\n"
     "For each word w, the sum over keys x of vec of vec[x] * vec[w*x]."},
    {"load_entries", (PyCFunction)(void (*)(void))load_entries, METH_FASTCALL,
     "load_entries(body, count)\n--\n\n"
     "The Level that a checkpoint body of `count` entries holds."},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *module)
{
    if (TreePairError == NULL) {
        if (PyType_Ready(&LevelType) < 0 || PyType_Ready(&LevelIterType) < 0)
            return -1;
        PyObject *pure = PyImport_ImportModule("tgf.treepair");
        if (pure == NULL)
            return -1;
        TreePairError = PyObject_GetAttrString(pure, "TreePairError");
        Py_DECREF(pure);
        if (TreePairError == NULL)
            return -1;
        IdentityKey = PyBytes_FromStringAndSize("\x46\x00\x01\x00", 4);
        if (IdentityKey == NULL)
            return -1;
        for (int v = 0; v < 256; v++)
            for (int k = 0; k < 8; k++)
                BITS[v][k] = (v >> (7 - k)) & 1;
        init_bit_tables();
        if (init_letters() < 0)
            return -1;
    }
    if (PyModule_AddObjectRef(module, "Level", (PyObject *)&LevelType) < 0)
        return -1;
    return PyModule_AddObjectRef(module, "IDENTITY_KEY", IdentityKey);
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT,
    .m_name = "tgf._treepair",
    .m_doc = "Compiled tree-pair kernel and level store; same semantics as tgf.treepair.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__treepair(void)
{
    return PyModuleDef_Init(&moduledef);
}
