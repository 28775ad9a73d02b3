/* LZ'78 feed kernel behind lz78lab.parsing.StreamParser, the rule loop
 * behind lz78lab.parsing.certify, and the seeded byte stream behind
 * lz78lab.words.random_word.
 *
 * The dictionary is a full binary trie in one flat int32 child array: node
 * t >= 1 is completed block t - 1, node 0 is the root, and child[2t + a] is
 * the child of t by letter a, or 0 for none.  Block t - 1's start and pred
 * are written in place, at starts[t - 1] and preds[t - 1], so nodes - 1 is
 * the block count.  cur is the node of the in-progress block, so a feed
 * resumes where the last one stopped.  The Python side owns the arrays and
 * doubles them when they are full; lz78_truncate to block 0 empties a parser
 * that parse keeps for the next call.  The seeded stream reproduces numpy's
 * SeedSequence and PCG64 and needs unsigned __int128 (gcc, clang).
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

/* The rules of certify, checked block by block in word order.  Block i
 * spans starts[i] to starts[i + 1], the last block to n.  Rule 1: block 0
 * starts at 0, and each block is non-empty and ends by n.  Rule 2: preds[i]
 * is -1 or an earlier block, and block i is one letter longer than it (than
 * the empty word for -1), with the same letters before its last.  Rule 3:
 * its key, 2 (preds[i] + 1) plus its last letter, is not yet set in seen,
 * 2 count zero bytes; given rule 2, equal blocks have equal keys.  Returns
 * 4 i + rule for the first block i that breaks a rule, else 4 count; a
 * repeat at the last block is the trailing duplicate.  Reads no lz78_state:
 * the check shares no code with lz78_feed. */
int64_t lz78_certify(const unsigned char *data, int64_t n, const int64_t *starts,
                     const int64_t *preds, int64_t count, unsigned char *seen)
{
    for (int64_t i = 0; i < count; i++) {
        int64_t a = starts[i], b = i + 1 < count ? starts[i + 1] : n, q = preds[i];
        if ((i == 0 && a != 0) || b <= a || b > n)
            return 4 * i + 1;
        if (q < -1 || q >= i || b - a != (q < 0 ? 0 : starts[q + 1] - starts[q]) + 1
            || (q >= 0 && memcmp(data + a, data + starts[q], (size_t)(b - a - 1))))
            return 4 * i + 2;
        int64_t key = 2 * (q + 1) + (data[b - 1] & 1);
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
void lz78_pcg64_bytes(const uint32_t *entropy, int64_t count, unsigned char *out, int64_t n)
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
