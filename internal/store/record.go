package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// valueVersion is the byte in front of every typed record's JSON. It is
// the contract between daemon generations: a record whose version this
// binary does not know is unreadable, never misread.
const valueVersion = 1

// Records is the typed view of the records under one key prefix: the one
// place that knows how the farm names, encodes and recovers its durable
// records. A key is the prefix and a sequence zero-padded to a fixed width
// (SeqRecords), or the prefix and a caller's name (NamedRecords). A value
// is valueVersion followed by json.Marshal of the record.
//
// A record this binary cannot read (an unknown version, bad JSON, a
// sequence key without a sequence) is skipped by every read and never
// deleted, so a downgraded daemon cannot destroy a newer one's data; its
// sequence still counts toward Watermark, so no new key overwrites it.
//
// A Records on a nil store is memory-only: writes are dropped and reads
// miss.
type Records[T any] struct {
	st     *Store
	prefix string
	width  int // digits of a sequence key; 0 for named keys
}

// SeqRecords returns the records keyed prefix plus a sequence number
// zero-padded to width digits, so key order is sequence order.
func SeqRecords[T any](st *Store, prefix string, width int) Records[T] {
	return Records[T]{st: st, prefix: prefix, width: width}
}

// NamedRecords returns the records keyed prefix plus a caller's name.
func NamedRecords[T any](st *Store, prefix string) Records[T] {
	return Records[T]{st: st, prefix: prefix}
}

// Entry is one readable record, as Each finds it.
type Entry[T any] struct {
	Name string // the key past the prefix
	Seq  int64  // the key's sequence number (sequence records only)
	Size int    // encoded bytes
	Val  T
}

// Key is the key of sequence number seq.
func (r Records[T]) Key(seq int64) string { return fmt.Sprintf("%s%0*d", r.prefix, r.width, seq) }

// Named is the key of name.
func (r Records[T]) Named(name string) string { return r.prefix + name }

// seq parses a sequence key's number.
func (r Records[T]) seq(key string) (int64, bool) {
	n, err := strconv.ParseInt(strings.TrimPrefix(key, r.prefix), 10, 64)
	return n, err == nil && n >= 0
}

// Watermark returns the highest sequence number under the prefix, of a
// readable record or not, and how many keys carry one. New sequence
// numbers start past it.
func (r Records[T]) Watermark() (last int64, n int) {
	if r.st == nil {
		return 0, 0
	}
	for _, key := range r.st.Keys(r.prefix) {
		if seq, ok := r.seq(key); ok {
			last = max(last, seq)
			n++
		}
	}
	return last, n
}

// Encode renders v as a record value.
func (r Records[T]) Encode(v T) ([]byte, error) { return encodeValue(v) }

// Put writes v under key.
func (r Records[T]) Put(key string, v T) error {
	if r.st == nil {
		return nil
	}
	data, err := encodeValue(v)
	if err != nil {
		return err
	}
	return r.st.Put(key, data)
}

// PutEncoded writes a value Encode rendered under key.
func (r Records[T]) PutEncoded(key string, data []byte) error {
	if r.st == nil {
		return nil
	}
	return r.st.Put(key, data)
}

// Delete removes the record under key.
func (r Records[T]) Delete(key string) error {
	if r.st == nil {
		return nil
	}
	return r.st.Delete(key)
}

// Get reads the record under key; an absent or unreadable one misses.
func (r Records[T]) Get(key string) (T, bool) {
	var v T
	if r.st == nil {
		return v, false
	}
	data, ok := r.st.Get(key)
	if !ok || decodeValue(data, &v) != nil {
		return v, false
	}
	return v, true
}

// Each calls fn with every readable record under the prefix, in key
// order. The raw values are copied out under the store's lock and decoded
// after it is released, so a long scan never stalls a writer.
func (r Records[T]) Each(fn func(Entry[T])) {
	if r.st == nil {
		return
	}
	type raw struct {
		key  string
		data []byte
	}
	var raws []raw
	_ = r.st.Scan(r.prefix, func(key string, data []byte) error {
		raws = append(raws, raw{key, append([]byte(nil), data...)})
		return nil
	})
	for _, w := range raws {
		e := Entry[T]{Name: strings.TrimPrefix(w.key, r.prefix), Size: len(w.data)}
		if r.width > 0 {
			var ok bool
			if e.Seq, ok = r.seq(w.key); !ok {
				continue
			}
		}
		if decodeValue(w.data, &e.Val) == nil {
			fn(e)
		}
	}
}

// encodeValue renders a record value: valueVersion, then the JSON.
func encodeValue(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append([]byte{valueVersion}, b...), nil
}

// decodeValue parses a record value into v, refusing an empty value and
// an unknown version.
func decodeValue(data []byte, v any) error {
	if len(data) == 0 {
		return errors.New("store: empty record value")
	}
	if data[0] != valueVersion {
		return fmt.Errorf("store: record value version %d not supported", data[0])
	}
	return json.Unmarshal(data[1:], v)
}
