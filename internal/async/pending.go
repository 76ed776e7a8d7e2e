package async

import (
	"math/bits"
	"sort"
)

// minSlots is the smallest slot array a pendingSet allocates.
const minSlots = 64

// slot holds one message the runtime has accepted. A slot dies when its
// message is delivered or dropped; dead slots are squeezed out by compact.
type slot struct {
	msg  Message
	live bool
}

// pendingSet is the runtime's index of in-flight messages. Slots sit in
// ID (send) order, so a position orders messages the way IDs do. On top of
// the slots it keeps:
//
//   - a Fenwick tree over positions counting deliverable messages (live
//     and addressed to a process that has not halted), so "the k-th
//     deliverable message in ID order" is an O(log) descent;
//   - one FIFO lane of positions per recipient, trimmed lazily from the
//     front, so "the oldest pending message to p" is amortised O(1);
//   - the deliverable count itself.
//
// Memory is O(pending), not O(messages ever sent): when the slot array is
// full, compact squeezes out dead slots and rebuilds the tree and lanes,
// growing the array only when more than half of it is live. The array is
// thus at most four times the peak pending count (or minSlots), and each
// compaction is paid for by the sends that filled the freed slots.
type pendingSet struct {
	slots       []slot
	tree        []int32 // 1-based Fenwick tree over positions; len = cap(slots)+1
	lanes       [][]int // per recipient: positions in ID order, possibly dead
	halted      []bool  // the runtime's halted flags (shared, read only)
	live        int
	deliverable int
	// last is the position kth or oldest last returned: the message a
	// scheduler picks there is the one the runtime then asks find for.
	last int
}

func newPendingSet(halted []bool) pendingSet {
	return pendingSet{halted: halted, lanes: make([][]int, len(halted))}
}

func (s *pendingSet) treeAdd(pos int, d int32) {
	for i := pos + 1; i < len(s.tree); i += i & -i {
		s.tree[i] += d
	}
}

// add appends m, which must carry the highest ID so far.
func (s *pendingSet) add(m Message) {
	if len(s.slots) == cap(s.slots) {
		s.compact()
	}
	pos := len(s.slots)
	s.slots = append(s.slots, slot{msg: m, live: true})
	s.lanes[m.To] = append(s.lanes[m.To], pos)
	s.live++
	if !s.halted[m.To] {
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
	if p := s.last; p < len(s.slots) && s.slots[p].msg.ID == id && s.slots[p].live {
		return p
	}
	pos := sort.Search(len(s.slots), func(i int) bool { return s.slots[i].msg.ID >= id })
	if pos == len(s.slots) || s.slots[pos].msg.ID != id || !s.slots[pos].live {
		return -1
	}
	return pos
}

// remove takes the live message at pos out of the set and returns it.
func (s *pendingSet) remove(pos int) Message {
	sl := &s.slots[pos]
	m := sl.msg
	sl.live = false
	sl.msg.Payload = nil // let the payload go before the slot is compacted
	s.live--
	if !s.halted[m.To] {
		s.treeAdd(pos, -1)
		s.deliverable--
	}
	return m
}

// removeIf removes every pending message drop selects and returns how
// many it removed.
func (s *pendingSet) removeIf(drop func(*Message) bool) int {
	n := 0
	for pos := range s.slots {
		if s.slots[pos].live && drop(&s.slots[pos].msg) {
			s.remove(pos)
			n++
		}
	}
	return n
}

// halt takes p's pending messages out of the deliverable index. The
// caller sets halted[p] afterwards, so later sends to p are never indexed.
func (s *pendingSet) halt(p PID) {
	for _, pos := range s.lanes[p] {
		if s.slots[pos].live {
			s.treeAdd(pos, -1)
			s.deliverable--
		}
	}
}

// kth returns the position of the k-th (0-based) deliverable message in
// ID order; 0 <= k < deliverable.
func (s *pendingSet) kth(k int) int {
	pos, rem := 0, int32(k)
	for step := 1 << (bits.Len(uint(len(s.tree)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(s.tree) && s.tree[next] <= rem {
			pos = next
			rem -= s.tree[next]
		}
	}
	s.last = pos
	return pos // the 1-based index pos+1, as a 0-based position
}

// oldest returns the position of the oldest pending message to p, or -1.
// Dead positions at the front of p's lane are trimmed on the way.
func (s *pendingSet) oldest(p PID) int {
	lane := s.lanes[p]
	for len(lane) > 0 && !s.slots[lane[0]].live {
		lane = lane[1:]
	}
	if len(lane) == 0 {
		lane = s.lanes[p][:0] // reuse the lane's storage from the start
	}
	s.lanes[p] = lane
	if len(lane) == 0 {
		return -1
	}
	s.last = lane[0]
	return lane[0]
}

// list materialises the pending messages in ID order.
func (s *pendingSet) list() []MsgMeta {
	out := make([]MsgMeta, 0, s.live)
	for i := range s.slots {
		if s.slots[i].live {
			out = append(out, meta(s.slots[i].msg))
		}
	}
	return out
}

// compact squeezes dead slots out of a full slot array, doubling it when
// more than half of it is live, and rebuilds the tree and the lanes.
func (s *pendingSet) compact() {
	size := cap(s.slots)
	if size < minSlots {
		size = minSlots
	}
	if 2*s.live > size {
		size *= 2
	}
	old := s.slots
	inPlace := size == cap(old)
	if inPlace {
		s.slots = old[:0] // the write index never passes the read index
	} else {
		s.slots = make([]slot, 0, size)
	}
	for i := range old {
		if old[i].live {
			s.slots = append(s.slots, old[i])
		}
	}
	if inPlace {
		clear(old[len(s.slots):]) // the tail's stale copies still hold payloads
	}
	if len(s.tree) != size+1 {
		s.tree = make([]int32, size+1)
	} else {
		clear(s.tree)
	}
	for p := range s.lanes {
		s.lanes[p] = s.lanes[p][:0]
	}
	for pos := range s.slots {
		to := s.slots[pos].msg.To
		s.lanes[to] = append(s.lanes[to], pos)
		if !s.halted[to] {
			s.tree[pos+1] = 1
		}
	}
	// Linear-time Fenwick build: push each node's sum to its parent.
	for i := 1; i < len(s.tree); i++ {
		if j := i + (i & -i); j < len(s.tree) {
			s.tree[j] += s.tree[i]
		}
	}
}
