/* LZ'78 feed kernel behind lz78lab.parsing.KernelStreamParser.
 *
 * The dictionary is a full binary trie in one flat int32 child array: node
 * t >= 1 is completed block t - 1, node 0 is the root, and child[2t + a] is
 * the child of t by letter a, or 0 for none.  cur is the node of the
 * in-progress block, so a feed resumes where the last one stopped and never
 * walks a block twice.  The Python side owns every buffer: it sizes the
 * child array and drains the blocks a call completes (new_starts, new_preds).
 * Build: cc -O2 -shared -fPIC -o _kernel.so _kernel.c
 */
#include <stdint.h>

typedef struct {
    int32_t *child;       /* 2 slots per node; the slots of unused nodes are 0 */
    int64_t node_cap;     /* nodes the child array holds */
    int64_t nodes;        /* nodes in use, the root included */
    int64_t cur;          /* node of the in-progress block, 0 when it is empty */
    int64_t pos;          /* letters fed so far */
    int64_t block_start;  /* position of the in-progress block */
    int64_t *new_starts;  /* start and pred of each block this call completed */
    int64_t *new_preds;
    int64_t new_cap;
    int64_t new_count;
} lz78_state;

/* Feed data[i..n), the letters as the bytes '0' and '1' (read by their low
 * bit).  Stops early when the child array or the new-block buffers are full;
 * returns the index of the first letter not consumed. */
int64_t lz78_feed(lz78_state *s, const unsigned char *data, int64_t i, int64_t n)
{
    int32_t *child = s->child;
    int64_t nodes = s->nodes, cur = s->cur, count = s->new_count;
    int64_t base = s->pos - i;            /* position of data[0] */
    for (; i < n; i++) {
        int32_t *slot = child + 2 * cur + (data[i] & 1);
        if (*slot) {
            cur = *slot;
            continue;
        }
        if (nodes == s->node_cap || count == s->new_cap)
            break;
        *slot = (int32_t)nodes++;
        s->new_starts[count] = s->block_start;
        s->new_preds[count++] = cur - 1;
        s->block_start = base + i + 1;
        cur = 0;
    }
    s->nodes = nodes;
    s->cur = cur;
    s->new_count = count;
    s->pos = base + i;
    return i;
}

/* Drop the blocks from block kept on: unlink each one's node t from its
 * parent preds[t - 1] + 1, in whichever of the two slots holds t.  The
 * children of a removed node are removed too, so every slot of a removed
 * node is 0 again, as a fresh node's must be. */
void lz78_truncate(lz78_state *s, const int64_t *preds, int64_t kept)
{
    for (int64_t t = s->nodes - 1; t > kept; t--) {
        int32_t *slot = s->child + 2 * (preds[t - 1] + 1);
        slot[slot[1] == t] = 0;
    }
    s->nodes = kept + 1;
    s->cur = 0;
}
