/* LZ'78 feed kernel behind lz78lab.parsing.StreamParser, and the letter
 * check of rule 2 behind lz78lab.parsing.certify.
 *
 * The dictionary is a full binary trie in one flat int32 child array: node
 * t >= 1 is completed block t - 1, node 0 is the root, and child[2t + a] is
 * the child of t by letter a, or 0 for none.  Block t - 1's start and pred
 * are written in place, at starts[t - 1] and preds[t - 1], so nodes - 1 is
 * the block count.  cur is the node of the in-progress block, so a feed
 * resumes where the last one stopped.  The Python side owns the arrays and
 * doubles them when they are full.
 * Build: cc -O2 -shared -fPIC -o _kernel.so _kernel.c
 */
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
int64_t lz78_feed(lz78_state *s, const unsigned char *data, int64_t i, int64_t n)
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
void lz78_truncate(lz78_state *s, int64_t kept)
{
    for (int64_t t = s->nodes - 1; t > kept; t--) {
        int32_t *slot = s->child + 2 * (s->preds[t - 1] + 1);
        slot[slot[1] == t] = 0;
    }
    s->nodes = kept + 1;
    s->cur = 0;
}

/* Rule 2 of certify, for the letters: the first block i below limit whose
 * letters but its last differ from block preds[i] (a pred of -1, the empty
 * word, always matches), or limit when none does.  Block i ends where block
 * i + 1 starts, the last block at n.  The caller has checked the starts, the
 * preds and the lengths below limit, so every compare stays in data[0..n).
 * Reads no lz78_state: the check shares no code with lz78_feed. */
int64_t lz78_first_mismatch(const unsigned char *data, int64_t n,
                            const int64_t *starts, const int64_t *preds,
                            int64_t count, int64_t limit)
{
    for (int64_t i = 0; i < limit; i++) {
        int64_t q = preds[i];
        if (q < 0)
            continue;
        int64_t end = i + 1 < count ? starts[i + 1] : n;
        if (memcmp(data + starts[i], data + starts[q], (size_t)(end - starts[i] - 1)))
            return i;
    }
    return limit;
}
