/* LZ'78 feed kernel behind lz78lab.parsing.StreamParser, the rule loop
 * behind lz78lab.parsing.certify, and the seeded byte stream behind
 * lz78lab.words.random_word, built as the CPython extension module
 * lz78lab._kernel.
 *
 * The dictionary is a full binary trie in one flat int32 child array: node
 * t >= 1 is completed block t - 1, node 0 is the root, and child[2t + a] is
 * the child of t by letter a, or 0 for none.  Block t - 1's start and pred
 * are written in place, at starts[t - 1] and preds[t - 1], so nodes - 1 is
 * the block count.  cur is the node of the in-progress block, so a feed
 * resumes where the last one stopped.  The Python side owns the arrays and
 * the four counters, doubles the arrays when they are full, and empties a
 * spare parser by zeroing its used child slots.  The seeded stream
 * reproduces numpy's SeedSequence and PCG64 and needs unsigned __int128
 * (gcc, clang).  The binding at the end takes the Python objects themselves,
 * the arrays through the buffer protocol, and checks them before a routine
 * reads or writes memory; lz78_state is declared here only.
 * Build: cc -O2 -shared -fPIC -isystem <sysconfig include> -o _kernel.so _kernel.c
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    int32_t *child;       /* 2 slots per node; the slots of unused nodes are 0 */
    int64_t *starts;      /* start and pred of each completed block, */
    int64_t *preds;       /* node_cap entries each */
    int64_t node_cap;     /* nodes the arrays hold */
    int64_t nodes;        /* nodes in use, the root included */
    int64_t cur;          /* node of the in-progress block, 0 when it is empty */
    int64_t pos;          /* letters fed so far */
    int64_t block_start;  /* position of the in-progress block */
} lz78_state;

/* Feed data[i..n), the letters as the bytes '0' and '1' (read by their low
 * bit).  Stops early when the arrays are full; returns the index of the
 * first letter not consumed. */
static int64_t lz78_feed(lz78_state *s, const unsigned char *data, int64_t i, int64_t n)
{
    int32_t *child = s->child;
    int64_t *starts = s->starts, *preds = s->preds, node_cap = s->node_cap;
    int64_t nodes = s->nodes, cur = s->cur, block_start = s->block_start;
    int64_t base = s->pos - i;            /* position of data[0] */
    for (; i < n; i++) {
        int32_t *slot = child + 2 * cur + (data[i] & 1);
        if (*slot) {
            cur = *slot;
            continue;
        }
        if (nodes == node_cap)
            break;
        *slot = (int32_t)nodes;
        starts[nodes - 1] = block_start;
        preds[nodes - 1] = cur - 1;
        nodes++;
        block_start = base + i + 1;
        cur = 0;
    }
    s->nodes = nodes;
    s->cur = cur;
    s->block_start = block_start;
    s->pos = base + i;
    return i;
}

/* Drop the blocks from block kept on: unlink each one's node t from its
 * parent preds[t - 1] + 1, in whichever of the two slots holds t.  The
 * children of a removed node are removed too, so every slot of a removed
 * node is 0 again, as a fresh node's must be. */
static void lz78_truncate(lz78_state *s, int64_t kept)
{
    for (int64_t t = s->nodes - 1; t > kept; t--) {
        int32_t *slot = s->child + 2 * (s->preds[t - 1] + 1);
        slot[slot[1] == t] = 0;
    }
    s->nodes = kept + 1;
    s->cur = 0;
}

/* The rules of certify, checked block by block in word order, over a word
 * held as a table of runs: run r is the bounds[r + 1] - bounds[r] letters at
 * runs[r], and the word's n letters end at bounds[nruns].  Block i spans
 * starts[i] to starts[i + 1], the last block to n.  Rule 1: block 0 starts
 * at 0, and each block is non-empty and ends by n.  Rule 2: preds[i] is -1
 * or an earlier block, and block i is one letter longer than it (than the
 * empty word for -1), with the same letters before its last: one lookup of
 * the pred's run, then a memcmp up to the nearer run end, and on.  Rule 3:
 * its key, 2 (preds[i] + 1) plus its last letter, is not yet set in seen,
 * 2 count zero bytes; given rule 2, equal blocks have equal keys.  Returns
 * 4 i + rule for the first block i that breaks a rule, else 4 count; a
 * repeat at the last block is the trailing duplicate.  Reads no lz78_state:
 * the check shares no code with lz78_feed. */
static int64_t lz78_run(const int64_t *bounds, int64_t nruns, int64_t p)
{
    int64_t lo = 0, len = nruns;          /* bounds[lo] <= p < bounds[lo + len] */
    while (len > 1) {                     /* no branch on the data: a select */
        int64_t half = len / 2;
        lo = bounds[lo + half] <= p ? lo + half : lo;
        len -= half;
    }
    return lo;
}

static int lz78_same(const unsigned char *const *runs, const int64_t *bounds,
                     int64_t ra, int64_t a, int64_t rc, int64_t c, int64_t len)
{
    while (len > 0) {
        while (bounds[ra + 1] <= a)
            ra++;
        while (bounds[rc + 1] <= c)
            rc++;
        int64_t m = len;
        if (bounds[ra + 1] - a < m)
            m = bounds[ra + 1] - a;
        if (bounds[rc + 1] - c < m)
            m = bounds[rc + 1] - c;
        if (memcmp(runs[ra] + (a - bounds[ra]), runs[rc] + (c - bounds[rc]), (size_t)m))
            return 0;
        a += m;
        c += m;
        len -= m;
    }
    return 1;
}

static int64_t lz78_certify(const unsigned char *const *runs, const int64_t *bounds,
                            int64_t nruns, const int64_t *starts, const int64_t *preds,
                            int64_t count, unsigned char *seen)
{
    int64_t n = bounds[nruns], r = 0;     /* r: the run of the block's first letter */
    for (int64_t i = 0; i < count; i++) {
        int64_t a = starts[i], b = i + 1 < count ? starts[i + 1] : n, q = preds[i];
        if ((i == 0 && a != 0) || b <= a || b > n)
            return 4 * i + 1;
        if (q < -1 || q >= i || b - a != (q < 0 ? 0 : starts[q + 1] - starts[q]) + 1)
            return 4 * i + 2;
        while (bounds[r + 1] <= a)        /* blocks run in word order */
            r++;
        if (q >= 0 && !lz78_same(runs, bounds, r, a, lz78_run(bounds, nruns, starts[q]),
                                 starts[q], b - a - 1))
            return 4 * i + 2;
        while (bounds[r + 1] < b)         /* the run of the last letter */
            r++;
        int64_t key = 2 * (q + 1) + (runs[r][b - 1 - bounds[r]] & 1);
        if (seen[key])
            return 4 * i + 3;
        seen[key] = 1;
    }
    return 4 * count;
}

/* numpy's SeedSequence and PCG64, so a seeded draw costs no Generator.  The
 * pool is SeedSequence(entropy)'s: 4 words, each entropy word hashmixed in,
 * every pool word mixed into every other, then each entropy word past the
 * fourth mixed into all four.  generate_state(4, uint64) hashes the pool
 * cyclically into 8 uint32, read as 4 little-endian uint64; PCG64 seeds its
 * state from words 0 and 1 and its increment from words 2 and 3 (high word
 * first), and each next64 is a step and the XSL-RR 128/64 output. */
__extension__ typedef unsigned __int128 lz78_u128;

static uint32_t lz78_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t lz78_mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* Write the first n bytes of the next64 stream of PCG64 on
 * SeedSequence(entropy), each next64 little-endian; entropy is the count
 * uint32 words that numpy makes of the entropy list, each value split into
 * its 32-bit words, low word first. */
static void lz78_pcg64_bytes(const uint32_t *entropy, int64_t count, unsigned char *out,
                             int64_t n)
{
    uint32_t pool[4], hash_const = 0x43b0d7e5u, state[8];
    for (int i = 0; i < 4; i++)
        pool[i] = lz78_hashmix(i < count ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = lz78_mix(pool[dst], lz78_hashmix(pool[src], &hash_const));
    for (int64_t src = 4; src < count; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = lz78_mix(pool[dst], lz78_hashmix(entropy[src], &hash_const));
    hash_const = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash_const;
        hash_const *= 0x58f38dedu;
        value *= hash_const;
        state[i] = value ^ value >> 16;
    }
    lz78_u128 word[4], mult = (lz78_u128)2549297995355413924u << 64 | 4865540595714422341u;
    for (int i = 0; i < 4; i++)
        word[i] = (uint64_t)state[2 * i + 1] << 32 | state[2 * i];
    lz78_u128 inc = (word[2] << 64 | word[3]) << 1 | 1;
    lz78_u128 pcg = inc;                  /* a step from state 0 */
    pcg = (pcg + (word[0] << 64 | word[1])) * mult + inc;
    for (int64_t i = 0; i < n; i += 8) {
        pcg = pcg * mult + inc;
        uint64_t x = (uint64_t)(pcg >> 64) ^ (uint64_t)pcg;
        unsigned rot = (unsigned)(pcg >> 122);
        x = x >> rot | x << (-rot & 63);
        if (n - i >= 8)
            for (int j = 0; j < 8; j++)
                out[i + j] = (unsigned char)(x >> 8 * j);
        else
            for (int64_t j = i; j < n; j++, x >>= 8)
                out[j] = (unsigned char)x;
    }
}

/* The CPython binding: one METH_FASTCALL wrapper a routine, which takes the
 * objects the routine reads and checks them before it reads or writes any:
 * each array through the buffer protocol, C-contiguous, of an integer format
 * of the routine's item size and writable where the routine writes it, the
 * letters and the runs as bytes, and counts as ints.  It holds the GIL
 * throughout, so no other thread can touch the arrays while a routine writes
 * them.  A parser is its four int64 counters (nodes, cur, pos, block_start),
 * its int32 child slots and its int64 starts and preds, one entry a node: the
 * capacity is the length of the first block array.  The binding fills an
 * lz78_state on the stack from them and writes the counters back.  It checks
 * the arrays' shapes and the counters; the trie's entries, the child slots
 * and the preds of the nodes in use, are read as the routines (or their
 * Python transliterations) wrote them. */
static int lz78_arity(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, not %zd", name, want, nargs);
    return 0;
}

/* args[0..count) as int64 values into out: 1, or 0 with the error set */
static int lz78_ints(PyObject *const *args, int count, int64_t *out)
{
    for (int k = 0; k < count; k++) {
        out[k] = (int64_t)PyLong_AsLongLong(args[k]);
        if (out[k] == -1 && PyErr_Occurred())
            return 0;
    }
    return 1;
}

static void lz78_release(Py_buffer *views, int count)
{
    while (count-- > 0)
        PyBuffer_Release(&views[count]);
}

/* obj's buffer into *view, C-contiguous, of one signed (or unsigned) integer
 * format code of size bytes, writable when asked: 1, or 0 with a TypeError
 * set and nothing held */
static int lz78_buffer(const char *name, const char *arg, PyObject *obj, Py_buffer *view,
                       Py_ssize_t size, int is_signed, int writable)
{
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) == 0) {
        const char *f = view->format ? view->format : "B";
        f += f[0] == '@';
        if (view->itemsize == size && f[0] && !f[1]
            && strchr(is_signed ? "bhilqn" : "BHILQN", f[0]))
            return 1;
        PyBuffer_Release(view);
    } else if (PyErr_ExceptionMatches(PyExc_TypeError)
               || PyErr_ExceptionMatches(PyExc_BufferError)) {
        PyErr_Clear();
    } else {
        return 0;
    }
    PyErr_Format(PyExc_TypeError, "%s takes %s as a %scontiguous buffer of %s%zd-bit "
                 "integers, not %.200s", name, arg, writable ? "writable " : "",
                 is_signed ? "" : "unsigned ", 8 * size, Py_TYPE(obj)->tp_name);
    return 0;
}

/* A parser's buffers, args[0..2 + blocks): the state, the child slots and
 * blocks block arrays (starts and preds, or preds), held in views and read
 * into *s.  Checks that the state is 4 counters, the child array 2 slots a
 * node and each block array 1 entry a node, that the node ids fit int32, and
 * that 1 <= nodes <= capacity and 0 <= cur < nodes: 1, or 0 with the error
 * set and nothing held. */
static int lz78_parser(const char *name, PyObject *const *args, int blocks, Py_buffer *views,
                       lz78_state *s)
{
    static const char *const arg[] = {"the state", "the child slots", "a block array",
                                      "a block array"};
    int held = 0;
    for (; held < 2 + blocks; held++)
        if (!lz78_buffer(name, arg[held], args[held], &views[held], held == 1 ? 4 : 8, 1, 1))
            goto fail;
    const int64_t *c = views[0].buf;
    int64_t cap = views[2].len / 8;
    if (views[0].len != 4 * 8 || views[1].len != 2 * 4 * cap
        || (blocks == 2 && views[3].len != views[2].len) || cap > (int64_t)INT32_MAX + 1) {
        PyErr_Format(PyExc_ValueError, "%s takes 4 counters, and 2 child slots and 1 block "
                     "entry a node for at most 2^31 nodes, not %zd, %zd and %zd bytes", name,
                     views[0].len, views[1].len, views[held - 1].len);
        goto fail;
    }
    if (c[0] < 1 || c[0] > cap || c[1] < 0 || c[1] >= c[0]) {
        PyErr_Format(PyExc_ValueError, "%s takes a state of 1 to %lld nodes and a current "
                     "node below them, not %lld and %lld", name, (long long)cap,
                     (long long)c[0], (long long)c[1]);
        goto fail;
    }
    s->child = views[1].buf;
    s->starts = blocks == 2 ? views[2].buf : NULL;
    s->preds = views[held - 1].buf;
    s->node_cap = cap;
    s->nodes = c[0];
    s->cur = c[1];
    s->pos = c[2];
    s->block_start = c[3];
    return 1;
fail:
    lz78_release(views, held);
    return 0;
}

/* Write the counters of *s back to the state, then let go of the buffers. */
static void lz78_store(Py_buffer *views, int count, const lz78_state *s)
{
    int64_t *c = views[0].buf;
    c[0] = s->nodes;
    c[1] = s->cur;
    c[2] = s->pos;
    c[3] = s->block_start;
    lz78_release(views, count);
}

/* lz78_feed(state, child, starts, preds, data, i, n): data a bytes, the range
 * 0 <= i <= n <= len(data) */
static PyObject *bind_feed(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t range[2];
    Py_buffer views[4];
    lz78_state s;
    (void)module;
    if (!lz78_arity("lz78_feed", nargs, 7) || !lz78_ints(args + 5, 2, range))
        return NULL;
    if (!PyBytes_Check(args[4])) {
        PyErr_Format(PyExc_TypeError, "lz78_feed reads bytes, not %.200s",
                     Py_TYPE(args[4])->tp_name);
        return NULL;
    }
    Py_ssize_t len = PyBytes_GET_SIZE(args[4]);
    if (range[0] < 0 || range[0] > range[1] || range[1] > len) {
        PyErr_Format(PyExc_ValueError, "lz78_feed range %lld to %lld is outside 0 to %zd",
                     (long long)range[0], (long long)range[1], len);
        return NULL;
    }
    if (!lz78_parser("lz78_feed", args, 2, views, &s))
        return NULL;
    int64_t i = lz78_feed(&s, (const unsigned char *)PyBytes_AS_STRING(args[4]),
                          range[0], range[1]);
    lz78_store(views, 4, &s);
    return PyLong_FromLongLong(i);
}

/* lz78_truncate(state, child, preds, kept): 0 <= kept < nodes, since a kept
 * block past the last would grow the trie over unwritten slots */
static PyObject *bind_truncate(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t kept;
    Py_buffer views[3];
    lz78_state s;
    (void)module;
    if (!lz78_arity("lz78_truncate", nargs, 4) || !lz78_ints(args + 3, 1, &kept)
        || !lz78_parser("lz78_truncate", args, 1, views, &s))
        return NULL;
    if (kept < 0 || kept >= s.nodes) {
        PyErr_Format(PyExc_ValueError, "lz78_truncate keeps %lld of %lld blocks",
                     (long long)kept, (long long)(s.nodes - 1));
        lz78_release(views, 3);
        return NULL;
    }
    lz78_truncate(&s, kept);
    lz78_store(views, 3, &s);
    Py_RETURN_NONE;
}

/* lz78_certify(runs, bounds, starts, preds): runs a list of bytes, bounds
 * len(runs) + 1 int64 entries from 0, each run r's span bounds[r + 1] -
 * bounds[r] at least 0 and at most its length; starts and preds int64 arrays
 * of one entry a block.  Allocates the key table seen. */
static PyObject *bind_certify(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const arg[] = {"the bounds", "the starts", "the preds"};
    Py_buffer views[3];
    PyObject *code = NULL;
    int held = 0;
    (void)module;
    if (!lz78_arity("lz78_certify", nargs, 4))
        return NULL;
    if (!PyList_Check(args[0])) {
        PyErr_Format(PyExc_TypeError, "lz78_certify takes the runs as a list of bytes, not "
                     "%.200s", Py_TYPE(args[0])->tp_name);
        return NULL;
    }
    Py_ssize_t nruns = PyList_GET_SIZE(args[0]);
    for (Py_ssize_t r = 0; r < nruns; r++)
        if (!PyBytes_Check(PyList_GET_ITEM(args[0], r))) {
            PyErr_Format(PyExc_TypeError, "lz78_certify takes the runs as bytes, not run %zd, "
                         "a %.200s", r, Py_TYPE(PyList_GET_ITEM(args[0], r))->tp_name);
            return NULL;
        }
    for (; held < 3; held++)
        if (!lz78_buffer("lz78_certify", arg[held], args[held + 1], &views[held], 8, 1, 0))
            goto done;
    int64_t count = views[1].len / 8;
    const int64_t *bounds = views[0].buf;
    if (views[0].len != 8 * (nruns + 1) || views[2].len != views[1].len || bounds[0] != 0) {
        PyErr_Format(PyExc_ValueError, "lz78_certify takes a bound from 0 past each of %zd "
                     "runs and a pred a start, not %zd bounds, %lld starts and %zd preds",
                     nruns, views[0].len / 8, (long long)count, views[2].len / 8);
        goto done;
    }
    for (Py_ssize_t r = 0; r < nruns; r++)
        if (bounds[r + 1] < bounds[r]     /* from bounds[0] = 0 on, no difference overflows */
            || bounds[r + 1] - bounds[r] > PyBytes_GET_SIZE(PyList_GET_ITEM(args[0], r))) {
            PyErr_Format(PyExc_ValueError, "lz78_certify's run %zd of %zd letters does not "
                         "span bound %lld to bound %lld", r,
                         PyBytes_GET_SIZE(PyList_GET_ITEM(args[0], r)), (long long)bounds[r],
                         (long long)bounds[r + 1]);
            goto done;
        }
    /* a byte more, so that no count asks for 0 bytes */
    const unsigned char **runs = PyMem_Malloc((size_t)nruns * sizeof *runs + 1);
    unsigned char *seen = PyMem_Calloc((size_t)(2 * count + 1), 1);
    if (runs == NULL || seen == NULL) {
        PyErr_NoMemory();
    } else {
        for (Py_ssize_t r = 0; r < nruns; r++)
            runs[r] = (const unsigned char *)PyBytes_AS_STRING(PyList_GET_ITEM(args[0], r));
        code = PyLong_FromLongLong(lz78_certify(runs, bounds, nruns, views[1].buf,
                                                views[2].buf, count, seen));
    }
    PyMem_Free(runs);
    PyMem_Free(seen);
done:
    lz78_release(views, held);
    return code;
}

/* lz78_pcg64_bytes(entropy, n): entropy a uint32 array, n >= 0; returns the
 * n bytes as a new bytes */
static PyObject *bind_pcg64_bytes(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t n;
    Py_buffer words;
    (void)module;
    if (!lz78_arity("lz78_pcg64_bytes", nargs, 2) || !lz78_ints(args + 1, 1, &n))
        return NULL;
    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "lz78_pcg64_bytes takes a length >= 0, not %lld",
                     (long long)n);
        return NULL;
    }
    if (!lz78_buffer("lz78_pcg64_bytes", "the entropy", args[0], &words, 4, 0, 0))
        return NULL;
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)n);
    if (out != NULL)
        lz78_pcg64_bytes(words.buf, words.len / 4, (unsigned char *)PyBytes_AS_STRING(out), n);
    PyBuffer_Release(&words);
    return out;
}

static PyMethodDef lz78_methods[] = {
    {"lz78_feed", (PyCFunction)(void (*)(void))bind_feed, METH_FASTCALL, NULL},
    {"lz78_truncate", (PyCFunction)(void (*)(void))bind_truncate, METH_FASTCALL, NULL},
    {"lz78_certify", (PyCFunction)(void (*)(void))bind_certify, METH_FASTCALL, NULL},
    {"lz78_pcg64_bytes", (PyCFunction)(void (*)(void))bind_pcg64_bytes, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef lz78_module = {
    PyModuleDef_HEAD_INIT, "lz78lab._kernel", NULL, -1, lz78_methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&lz78_module);
}
