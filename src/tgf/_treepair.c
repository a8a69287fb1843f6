/* Compiled tree-pair kernel for Thompson's group F.
 *
 * Same semantics as the pure-Python reference tgf.treepair, on the same
 * packed canonical keys: 0x46, leaf count L (u16 big endian), then the
 * 2(2L-1) preorder tokens of the domain and range trees (1 = caret,
 * 0 = leaf) packed MSB-first, with zero padding bits.  compose_keys(a, b)
 * is the reduced pair of a*b with b acting first.
 *
 * apply_left(factors, vec) and inner(words, vec) run one batch driver.  It
 * unpacks each factor once per call, walks vec once, unpacks and indexes
 * each key once for all factors, and builds each product g*x in growable
 * scratch buffers; a product with the identity is the other factor as it
 * is.  Only the step per product differs:
 *   - apply_left is the ladder's inner loop.  It accumulates the Python-int
 *     coefficients into one new dict, in the insertion order of
 *     tgf.treepair.apply_left (identity factors first, then the others).
 *   - inner adds vec[x] * vec[w*x] to the exact sum of word w, giving
 *     <w.h, h> for the group-ring element h that vec holds.
 * compose_keys and invert_key use static scratch buffers instead, so the
 * brute-force walks pay no allocation per call.
 *
 * Every key is checked before use (tag, leaf count, exact length, zero
 * padding, two complete trees); a malformed key raises TreePairError.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* Checks the type, tag, leaf count and length of a key; returns L or -1. */
static int
key_leaves(PyObject *key)
{
    if (!PyBytes_Check(key)) {
        PyErr_Format(PyExc_TypeError, "tree-pair key must be bytes, not %.100s",
                     Py_TYPE(key)->tp_name);
        return -1;
    }
    const unsigned char *s = (const unsigned char *)PyBytes_AS_STRING(key);
    Py_ssize_t len = PyBytes_GET_SIZE(key);
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

/* Room that unpack_into needs for a key of `nl` leaves. */
static size_t
token_room(int nl)
{
    return 8 * (size_t)(packed_size(2 * nl - 1) - 3);
}

/* Unpacks a key of `nl` leaves (see key_leaves) into tokens at t, which has
 * token_room(nl) bytes, and checks its padding and trees. */
static int
unpack_into(PyObject *key, int nl, unsigned char *t, Pair *out)
{
    const unsigned char *s = (const unsigned char *)PyBytes_AS_STRING(key) + 3;
    Py_ssize_t nbytes = PyBytes_GET_SIZE(key) - 3;
    for (Py_ssize_t i = 0; i < nbytes; i++)
        memcpy(t + 8 * i, BITS[s[i]], 8);
    int ntok = 2 * nl - 1;
    for (Py_ssize_t k = 2 * ntok; k < 8 * nbytes; k++)
        if (t[k])
            return fail("tree-pair key has nonzero padding bits");
    if (!complete_tree(t, ntok) || !complete_tree(t + ntok, ntok))
        return fail("tree-pair key does not hold two complete trees");
    out->dom = t;
    out->rng = t + ntok;
    out->nl = nl;
    return 0;
}

static int
unpack(PyObject *key, Buf *buf, Pair *out)
{
    int nl = key_leaves(key);
    if (nl < 0 || reserve(buf, token_room(nl)) == NULL)
        return -1;
    return unpack_into(key, nl, buf->p, out);
}

/* Key of the pair whose domain and range tokens are t[0:ntok] and
 * t[ntok:2*ntok]; t needs 7 spare bytes after them. */
static PyObject *
pack(unsigned char *t, int ntok)
{
    int nl = (ntok + 1) / 2;
    if (nl > MAX_LEAVES) {
        fail("tree too large for key format");
        return NULL;
    }
    Py_ssize_t size = packed_size(ntok);
    PyObject *key = PyBytes_FromStringAndSize(NULL, size);
    if (key == NULL)
        return NULL;
    unsigned char *s = (unsigned char *)PyBytes_AS_STRING(key);
    s[0] = KEY_TAG;
    s[1] = (unsigned char)(nl >> 8);
    s[2] = (unsigned char)(nl & 0xFF);
    memset(t + 2 * ntok, LEAF, 7);
    for (Py_ssize_t i = 3; i < size; i++, t += 8)
        s[i] = (unsigned char)(t[0] << 7 | t[1] << 6 | t[2] << 5 | t[3] << 4
                               | t[4] << 3 | t[5] << 2 | t[6] << 1 | t[7]);
    return key;
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

/* Key of the reduced pair a*b (b acts first); ix is index_pair(b) and w the
 * work buffer.  The walk and the domain copy cost O(size of a) plus memcpy,
 * so a small left factor is cheap whatever the size of b. */
static PyObject *
product(const Pair *a, const Pair *b, const int *ix, Buf *w)
{
    int na = 2 * a->nl - 1, nb = 2 * b->nl - 1;
    size_t cap = 2 * ((size_t)a->nl + b->nl);
    if (reserve(w, 5 * (size_t)a->nl * sizeof(int) + 5 * cap + 7) == NULL)
        return NULL;
    /* xb: (leaf of b's range, span of a's domain below it) for each such
     * leaf, in order; xa: per leaf of a's domain, the span of b's range
     * below it, or -1 */
    int *xb = (int *)w->p, *xa = xb + 3 * a->nl;
    /* od holds the product's domain and then, for pack, its range */
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
    return pack(od, ntok);
}

/* -- module functions ------------------------------------------------------- */

/* Scratch for compose_keys and invert_key, which run no Python code while
 * they use it. */
static Buf KA, KB, INDEX, WORK;

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static PyObject *
compose_keys(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Pair a, b;
    if (check_nargs("compose_keys", nargs, 2) < 0)
        return NULL;
    if (unpack(args[0], &KA, &a) < 0 || unpack(args[1], &KB, &b) < 0)
        return NULL;
    if (a.nl == 1)
        return Py_NewRef(args[1]);
    if (b.nl == 1)
        return Py_NewRef(args[0]);
    const int *ix = index_pair(&b, &INDEX);
    return ix == NULL ? NULL : product(&a, &b, ix, &WORK);
}

static PyObject *
invert_key(PyObject *module, PyObject *key)
{
    Pair a;
    if (unpack(key, &KA, &a) < 0)
        return NULL;
    int ntok = 2 * a.nl - 1;
    unsigned char *t = reserve(&WORK, 2 * (size_t)ntok + 7);
    if (t == NULL)
        return NULL;
    memcpy(t, a.rng, ntok);
    memcpy(t + ntok, a.dom, ntok);
    return pack(t, ntok);
}

/* out[key] = out.get(key, 0) + c, with one lookup when key is new */
static int
accumulate(PyObject *out, PyObject *key, PyObject *c)
{
    Py_ssize_t size = PyDict_GET_SIZE(out);
    PyObject *old = PyDict_SetDefault(out, key, c);
    if (old == NULL)
        return -1;
    if (PyDict_GET_SIZE(out) != size)
        return 0;
    PyObject *sum = PyNumber_Add(old, c);
    if (sum == NULL)
        return -1;
    int rc = PyDict_SetItem(out, key, sum);
    Py_DECREF(sum);
    return rc;
}

static int
is_identity(PyObject *key)
{
    return PyBytes_Check(key) && PyBytes_GET_SIZE(key) == PyBytes_GET_SIZE(IdentityKey)
        && memcmp(PyBytes_AS_STRING(key), PyBytes_AS_STRING(IdentityKey),
                  PyBytes_GET_SIZE(key)) == 0;
}

/* One pass of vec against a list of factors, shared by apply_left and inner.
 * sums is NULL for apply_left, whose identity factors are only counted. */
typedef struct {
    PyObject *vec;
    PyObject *out;               /* apply_left's new dict or inner's list */
    PyObject **sums;             /* inner's sums, the items of out */
    PyObject *n_identity;        /* NULL without identity factors */
    PyObject **factors;          /* the factors composed, borrowed from a tuple */
    Pair *pairs;                 /* their unpacked trees */
    Py_ssize_t n;
    Buf keybuf, index, work;
} Batch;

/* The per-product step: apply_left adds c to out[prod]; inner adds
 * c * vec[prod] to the sum of factor f, exactly, in Python ints. */
static int
batch_step(Batch *bt, Py_ssize_t f, PyObject *prod, PyObject *c)
{
    if (bt->sums == NULL)
        return accumulate(bt->out, prod, c);
    PyObject *d = PyDict_GetItemWithError(bt->vec, prod);
    if (d == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(d);
    PyObject *term = PyNumber_Multiply(c, d);
    Py_DECREF(d);
    if (term == NULL)
        return -1;
    PyObject *total = PyNumber_Add(bt->sums[f], term);
    Py_DECREF(term);
    if (total == NULL)
        return -1;
    Py_SETREF(bt->sums[f], total);
    return 0;
}

/* All products of one (key, c) item of vec, in the pure loops' order. */
static int
batch_item(Batch *bt, PyObject *key, PyObject *c)
{
    if (bt->n_identity != NULL) {
        PyObject *scaled = PyNumber_Multiply(bt->n_identity, c);
        if (scaled == NULL)
            return -1;
        int rc = accumulate(bt->out, key, scaled);
        Py_DECREF(scaled);
        if (rc < 0)
            return -1;
    }
    if (bt->n == 0)
        return 0;
    Pair k;
    const int *ix = NULL;
    if (unpack(key, &bt->keybuf, &k) < 0)
        return -1;
    if (k.nl > 1 && (ix = index_pair(&k, &bt->index)) == NULL)
        return -1;
    for (Py_ssize_t f = 0; f < bt->n; f++) {
        /* as in compose_keys, a product with the identity is the other
         * factor as it is, even when that one is not reduced */
        PyObject *prod = bt->pairs[f].nl == 1 ? Py_NewRef(key)
                         : ix == NULL         ? Py_NewRef(bt->factors[f])
                                              : product(&bt->pairs[f], &k, ix, &bt->work);
        if (prod == NULL)
            return -1;
        int rc = batch_step(bt, f, prod, c);
        Py_DECREF(prod);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* The batch driver: apply_left(factors, vec) when inner is 0, else
 * inner(words, vec). */
static PyObject *
batch(const char *name, PyObject *const *args, Py_ssize_t nargs, int inner)
{
    if (check_nargs(name, nargs, 2) < 0)
        return NULL;
    Batch bt = {.vec = args[1]};
    if (!PyDict_Check(bt.vec)) {
        PyErr_Format(PyExc_TypeError, "%s needs a dict, not %.100s", name,
                     Py_TYPE(bt.vec)->tp_name);
        return NULL;
    }
    PyObject *factors = PySequence_Tuple(args[0]);
    if (factors == NULL)
        return NULL;
    Py_ssize_t nf = PyTuple_GET_SIZE(factors), nid = 0;
    size_t total = 0;
    Buf fbuf = {0};
    PyObject *result = NULL;

    bt.factors = PyMem_Malloc((nf + 1) * sizeof(PyObject *));
    bt.pairs = PyMem_Malloc((nf + 1) * sizeof(Pair));
    if (bt.factors == NULL || bt.pairs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t f = 0; f < nf; f++) {
        PyObject *g = PyTuple_GET_ITEM(factors, f);
        if (!inner && is_identity(g)) {
            nid++;
            continue;
        }
        int nl = key_leaves(g);
        if (nl < 0)
            goto done;
        total += token_room(nl);
        bt.factors[bt.n] = g;
        bt.pairs[bt.n++].nl = nl;
    }
    /* unpack every factor once, into one buffer sized up front */
    if (reserve(&fbuf, total + 1) == NULL)
        goto done;
    total = 0;
    for (Py_ssize_t f = 0; f < bt.n; f++) {
        int nl = bt.pairs[f].nl;
        if (unpack_into(bt.factors[f], nl, fbuf.p + total, &bt.pairs[f]) < 0)
            goto done;
        total += token_room(nl);
    }
    if (nid && (bt.n_identity = PyLong_FromSsize_t(nid)) == NULL)
        goto done;
    if (inner) {
        /* the sums live in the result list, which nothing else sees until
         * the end */
        if ((bt.out = PyList_New(nf)) == NULL)
            goto done;
        for (Py_ssize_t f = 0; f < nf; f++)
            PyList_SET_ITEM(bt.out, f, PyLong_FromLong(0));
        bt.sums = PySequence_Fast_ITEMS(bt.out);
    }
    else if ((bt.out = PyDict_New()) == NULL)
        goto done;

    Py_ssize_t pos = 0;
    PyObject *key, *c;
    while (PyDict_Next(bt.vec, &pos, &key, &c)) {
        /* own the item: adding coefficients may run Python code */
        Py_INCREF(key);
        Py_INCREF(c);
        int rc = batch_item(&bt, key, c);
        Py_DECREF(key);
        Py_DECREF(c);
        if (rc < 0)
            goto done;
    }
    result = Py_NewRef(bt.out);
done:
    Py_XDECREF(bt.out);
    Py_XDECREF(bt.n_identity);
    PyMem_Free(bt.factors);
    PyMem_Free(bt.pairs);
    PyMem_Free(bt.keybuf.p);
    PyMem_Free(bt.index.p);
    PyMem_Free(bt.work.p);
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

static PyMethodDef methods[] = {
    {"compose_keys", (PyCFunction)(void (*)(void))compose_keys, METH_FASTCALL,
     "compose_keys(a, b)\n--\n\nCanonical key of the product a*b (right factor acts first)."},
    {"invert_key", invert_key, METH_O,
     "invert_key(a)\n--\n\nCanonical key of the inverse of a."},
    {"apply_left", (PyCFunction)(void (*)(void))apply_left, METH_FASTCALL,
     "apply_left(factors, vec)\n--\n\n"
     "Multiset product (sum of factors) . vec, multiplying on the left."},
    {"inner", (PyCFunction)(void (*)(void))inner, METH_FASTCALL,
     "inner(words, vec)\n--\n\n"
     "For each word w, the sum over keys x of vec of vec[x] * vec[w*x]."},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *module)
{
    if (TreePairError == NULL) {
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
    }
    return PyModule_AddObjectRef(module, "IDENTITY_KEY", IdentityKey);
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT,
    .m_name = "tgf._treepair",
    .m_doc = "Compiled tree-pair kernel; same semantics as tgf.treepair.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__treepair(void)
{
    return PyModuleDef_Init(&moduledef);
}
