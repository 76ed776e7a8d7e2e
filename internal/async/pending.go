package async

import (
	"math/bits"
	"sort"
	"sync"
)

// minSlots is the smallest slot array a pendingSet allocates. Slot arrays
// are minSlots times a power of two, so they fill whole bitmap words.
const minSlots = 64

// blockBits is log2 of the positions one leaf of the Fenwick tree counts.
const blockBits = 9

// pendingSet is the runtime's index of in-flight messages. Slots are bare
// Messages in ID (send) order, so a position orders messages the way IDs
// do. On top of the slots it keeps:
//
//   - alive, a bitmap over positions: the slot holds a pending message;
//   - ready, a bitmap over positions: the message is pending and its
//     recipient has not halted (it is deliverable);
//   - a Fenwick tree over 512-position blocks of ready, so "the k-th
//     deliverable message in ID order" descends the tree to a block, then
//     popcounts that block's words and selects within one word: O(log
//     pending);
//   - one FIFO lane of positions per recipient, whose head skips dead
//     positions lazily, so "the oldest pending message to p" is amortised
//     O(1);
//   - the live and deliverable counts.
//
// Adding, removing or halting one message flips one bit in each bitmap it
// is in and updates O(log blocks) tree nodes: a play at n=8 has a tree of
// a few leaves.
//
// Memory is O(pending), not O(messages ever sent): when the slot array is
// full, compact squeezes out dead slots and rebuilds the bitmaps, tree and
// lanes, growing the array only when more than half of it is live. The
// array is thus at most four times the peak pending count (or minSlots),
// the bitmaps one bit per slot each, the tree one counter per 512 slots,
// and each compaction is paid for by the sends that filled the freed
// slots.
//
// The arrays are carved from a pendStore, which a run takes from
// storePool and hands back when it ends: a play reuses the storage
// earlier plays grew, and allocates only when it needs more than any of
// them did. The sizes above bound the part of the store a run uses.
type pendingSet struct {
	slots       []Message // a dead slot keeps its pattern fields, not its payload
	alive       []uint64  // bit per slot position: pending
	ready       []uint64  // bit per slot position: pending, recipient not halted
	tree        []int32   // 1-based Fenwick tree over blocks of ready
	lanes       []lane    // per recipient
	halted      []bool    // the runtime's halted flags (shared, read only)
	live        int
	deliverable int
	// last is the position kth or oldest last returned: the message a
	// scheduler picks there is the one the runtime then asks find for.
	last int
	st   *pendStore
}

// lane is one recipient's positions in ID order. Those before head are
// dead; those after it may be.
type lane struct {
	pos  []int32
	head int
}

// pendStore is the storage a pendingSet carves its arrays from. Each
// slice is kept at its full capacity (len == cap); a set uses a prefix.
// No slot holds a payload while the store is not in use.
type pendStore struct {
	slots        []Message
	alive, ready []uint64
	tree         []int32
	lanes        []lane
}

// storePool recycles pendStores across runs.
var storePool = sync.Pool{New: func() any { return new(pendStore) }}

// newPendingSet returns an empty set for len(halted) recipients on st's
// storage, whatever an earlier set left in it. The first add compacts,
// which sizes and clears the bitmaps and the tree.
func newPendingSet(halted []bool, st *pendStore) pendingSet {
	n := len(halted)
	if len(st.lanes) < n {
		st.lanes = append(st.lanes, make([]lane, n-len(st.lanes))...)
	}
	lanes := st.lanes[:n]
	for p := range lanes {
		lanes[p] = lane{pos: lanes[p].pos[:0]}
	}
	return pendingSet{slots: st.slots[:0:0], halted: halted, lanes: lanes, st: st}
}

// release drops the payloads the set still holds and returns its
// storage. The set is empty afterwards and must not be used again.
func (s *pendingSet) release() *pendStore {
	clear(s.slots)
	st := s.st
	*s = pendingSet{}
	return st
}

// carve returns the first n elements of *buf, zeroed, first replacing
// *buf with a fresh slice of n elements when it is shorter.
func carve[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

func bitGet(b []uint64, pos int) bool { return b[pos>>6]&(1<<(pos&63)) != 0 }
func bitSet(b []uint64, pos int)      { b[pos>>6] |= 1 << (pos & 63) }
func bitClear(b []uint64, pos int)    { b[pos>>6] &^= 1 << (pos & 63) }

// treeAdd adds d to the deliverable count of pos's block.
func (s *pendingSet) treeAdd(pos int, d int32) {
	for i := pos>>blockBits + 1; i < len(s.tree); i += i & -i {
		s.tree[i] += d
	}
}

// unready takes the deliverable message at pos out of the ready index.
func (s *pendingSet) unready(pos int) {
	bitClear(s.ready, pos)
	s.treeAdd(pos, -1)
	s.deliverable--
}

// add appends m, which must carry the highest ID so far.
func (s *pendingSet) add(m Message) {
	if len(s.slots) == cap(s.slots) {
		s.compact()
	}
	pos := len(s.slots)
	s.slots = append(s.slots, m)
	bitSet(s.alive, pos)
	l := &s.lanes[m.To]
	l.pos = append(l.pos, int32(pos))
	s.live++
	if !s.halted[m.To] {
		bitSet(s.ready, pos)
		s.treeAdd(pos, 1)
		s.deliverable++
	}
}

// find returns the position of pending message id, or -1 if id is not
// pending (never sent, already delivered or dropped, or out of range). It
// tries the last looked-up position first, which a delivery or a
// compaction may since have killed or moved, and binary-searches if that
// slot does not hold id alive.
func (s *pendingSet) find(id MsgID) int {
	if p := s.last; p < len(s.slots) && s.slots[p].ID == id && bitGet(s.alive, p) {
		return p
	}
	pos := sort.Search(len(s.slots), func(i int) bool { return s.slots[i].ID >= id })
	if pos == len(s.slots) || s.slots[pos].ID != id || !bitGet(s.alive, pos) {
		return -1
	}
	return pos
}

// remove takes the live message at pos out of the set and returns it.
func (s *pendingSet) remove(pos int) Message {
	m := s.slots[pos]
	s.slots[pos].Payload = nil // let the payload go before the slot is compacted
	bitClear(s.alive, pos)
	s.live--
	if bitGet(s.ready, pos) {
		s.unready(pos)
	}
	return m
}

// removeIf removes every pending message drop selects and returns how
// many it removed.
func (s *pendingSet) removeIf(drop func(*Message) bool) int {
	n := 0
	for i, w := range s.alive {
		for ; w != 0; w &= w - 1 {
			if pos := i<<6 + bits.TrailingZeros64(w); drop(&s.slots[pos]) {
				s.remove(pos)
				n++
			}
		}
	}
	return n
}

// halt takes p's pending messages out of the deliverable index. The
// caller sets halted[p] afterwards, so later sends to p are never indexed.
func (s *pendingSet) halt(p PID) {
	l := s.lanes[p]
	for _, pos := range l.pos[l.head:] {
		if bitGet(s.ready, int(pos)) {
			s.unready(int(pos))
		}
	}
}

// kth returns the position of the k-th (0-based) deliverable message in
// ID order; 0 <= k < deliverable.
func (s *pendingSet) kth(k int) int {
	blk, rem := 0, int32(k)
	for step := 1 << (bits.Len(uint(len(s.tree)-1)) - 1); step > 0; step >>= 1 {
		if next := blk + step; next < len(s.tree) && s.tree[next] <= rem {
			blk = next
			rem -= s.tree[next]
		}
	}
	// blk is the 1-based index blk+1 as a 0-based block: scan its words.
	for i := blk << (blockBits - 6); ; i++ {
		w := s.ready[i]
		if c := int32(bits.OnesCount64(w)); rem >= c {
			rem -= c
			continue
		}
		s.last = i<<6 + selectBit(w, int(rem))
		return s.last
	}
}

// selectBit returns the index of the r-th (0-based) set bit of w, which
// has more than r set bits.
func selectBit(w uint64, r int) int {
	off := 0
	if c := bits.OnesCount32(uint32(w)); r >= c {
		r -= c
		w >>= 32
		off = 32
	}
	if c := bits.OnesCount16(uint16(w)); r >= c {
		r -= c
		w >>= 16
		off += 16
	}
	if c := bits.OnesCount8(uint8(w)); r >= c {
		r -= c
		w >>= 8
		off += 8
	}
	for ; r > 0; r-- {
		w &= w - 1
	}
	return off + bits.TrailingZeros64(w)
}

// oldest returns the position of the oldest pending message to p, or -1.
// p's lane head skips dead positions on the way; a lane with none alive
// starts again from the front of its storage.
func (s *pendingSet) oldest(p PID) int {
	l := &s.lanes[p]
	for l.head < len(l.pos) && !bitGet(s.alive, int(l.pos[l.head])) {
		l.head++
	}
	if l.head == len(l.pos) {
		*l = lane{pos: l.pos[:0]}
		return -1
	}
	s.last = int(l.pos[l.head])
	return s.last
}

// list materialises the pending messages in ID order.
func (s *pendingSet) list() []MsgMeta {
	out := make([]MsgMeta, 0, s.live)
	for i, w := range s.alive {
		for ; w != 0; w &= w - 1 {
			out = append(out, meta(s.slots[i<<6+bits.TrailingZeros64(w)]))
		}
	}
	return out
}

// compact squeezes dead slots out of a full slot array, doubling it when
// more than half of it is live, and rebuilds the bitmaps, the tree and
// the lanes. The live messages end up at positions 0..live-1. The new
// array is a prefix of the store's, so the copy is in place unless the
// store has to grow.
func (s *pendingSet) compact() {
	size := cap(s.slots)
	if size < minSlots {
		size = minSlots
	}
	if 2*s.live > size {
		size *= 2
	}
	old := s.slots
	inPlace := size <= cap(s.st.slots)
	if !inPlace {
		s.st.slots = make([]Message, size)
	}
	s.slots = s.st.slots[:0:size] // in place, the write index never passes the read index
	for i, w := range s.alive {
		for ; w != 0; w &= w - 1 {
			s.slots = append(s.slots, old[i<<6+bits.TrailingZeros64(w)])
		}
	}
	if inPlace {
		clear(old[len(s.slots):]) // the tail's stale copies still hold payloads
	}
	s.alive = carve(&s.st.alive, size/64)
	s.ready = carve(&s.st.ready, size/64)
	s.tree = carve(&s.st.tree, (size+1<<blockBits-1)>>blockBits+1)
	for p := range s.lanes {
		s.lanes[p] = lane{pos: s.lanes[p].pos[:0]}
	}
	for pos := range s.slots {
		to := s.slots[pos].To
		bitSet(s.alive, pos)
		l := &s.lanes[to]
		l.pos = append(l.pos, int32(pos))
		if !s.halted[to] {
			bitSet(s.ready, pos)
			s.tree[pos>>blockBits+1]++
		}
	}
	// Linear-time Fenwick build: push each node's sum to its parent.
	for i := 1; i < len(s.tree); i++ {
		if j := i + (i & -i); j < len(s.tree) {
			s.tree[j] += s.tree[i]
		}
	}
}
