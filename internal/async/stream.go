package async

import (
	"encoding/binary"
	"math/rand/v2"
)

// Stream labels: the domain part of a stream's key. Parties and the
// random scheduler key their streams under different labels, so the
// scheduler never draws what a party draws.
const (
	partyLabel     = "async/party"
	schedulerLabel = "async/scheduler"
)

// StreamKey is the ChaCha8 key of stream index under label in the play
// seeded with seed: label's bytes, zero-padded to 16, then seed and index
// as little-endian words. Labels are at most 16 bytes, so distinct
// (label, seed, index) triples give distinct keys, and every 64-bit seed
// keys streams of its own.
func StreamKey(label string, seed int64, index uint64) [32]byte {
	var k [32]byte
	if copy(k[:16], label) < len(label) {
		panic("async: stream label longer than 16 bytes: " + label)
	}
	binary.LittleEndian.PutUint64(k[16:], uint64(seed))
	binary.LittleEndian.PutUint64(k[24:], index)
	return k
}

// stream is a keyed ChaCha8 generator held by value, so its owner re-keys
// it in place instead of allocating one. r draws from src: a stream must
// not be copied once keyed.
type stream struct {
	src rand.ChaCha8
	r   rand.Rand
}

// key re-keys s as stream index under label in the play seeded with seed.
func (s *stream) key(label string, seed int64, index uint64) {
	s.src.Seed(StreamKey(label, seed, index))
	s.r = *rand.New(&s.src)
}

// keyParties returns the streams of n parties on st's storage, keyed for
// the play seeded with seed: party p's is the stream a Remote for p in
// that play draws from.
func (st *pendStore) keyParties(seed int64, n int) []stream {
	if len(st.streams) < n {
		st.streams = make([]stream, n)
	}
	s := st.streams[:n]
	for p := range s {
		s[p].key(partyLabel, seed, uint64(p))
	}
	return s
}
