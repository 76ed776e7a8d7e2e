package cluster

import (
	"bytes"
	"testing"
	"time"
)

// recordingWriter keeps a copy of every Write call's bytes.
type recordingWriter struct{ writes [][]byte }

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestCoalescedWriteMatchesSingleFrames: a coalesced write is exactly the
// concatenation of the same frames written one by one, so batching
// changes the number of writes, never the wire bytes. A burst within the
// batch cap is one write; a larger one is split at the cap.
func TestCoalescedWriteMatchesSingleFrames(t *testing.T) {
	sizes := []int{0, 16, 1000}
	for _, count := range []int{1, 3, 300} { // 300 frames are ~100 KiB: past the cap
		frames := make([]dataFrame, count)
		var want bytes.Buffer
		var single []byte
		for i := range frames {
			frames[i] = dataFrame{seq: uint64(i + 1), payload: bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])}
			var err error
			if single, err = writeData(&want, single, frames[i].seq, frames[i].payload); err != nil {
				t.Fatal(err)
			}
		}

		l := &link{t: &Transport{}}
		var w recordingWriter
		_, written, err := l.writeFrames(&w, nil, frames)
		if err != nil || written != count {
			t.Fatalf("%d frames: wrote %d: %v", count, written, err)
		}
		if got := bytes.Join(w.writes, nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d frames: coalesced bytes differ from single-frame bytes", count)
		}
		if spilled := want.Len() > maxBatchBytes; spilled != (len(w.writes) > 1) {
			t.Fatalf("%d frames (%d bytes) took %d writes", count, want.Len(), len(w.writes))
		}
		for _, b := range w.writes[:len(w.writes)-1] {
			if len(b) < maxBatchBytes {
				t.Fatalf("%d frames: a non-final write of %d bytes is under the cap", count, len(b))
			}
		}
		if st := l.t.Stats(); st.FramesOut != int64(count) || st.BytesOut != int64(want.Len()) {
			t.Fatalf("%d frames: counted %d frames, %d bytes; want %d, %d", count, st.FramesOut, st.BytesOut, count, want.Len())
		}
	}
}

// TestBurstAcknowledgedPerBurst queues a burst before the link has an
// address, so it leaves in as few writes as the batch cap allows. Every
// frame is delivered once and in order, the receiver acknowledges per
// burst rather than per frame, and the resend buffer still drains to
// zero: the last frame of every burst is acknowledged.
func TestBurstAcknowledgedPerBurst(t *testing.T) {
	const burst = 1000
	mn := newMemNet()
	_, a := openOwn(t, mn, "a:1", Config{Self: 0, N: 2, ClusterID: "burst"})
	for m := 0; m < burst; m++ {
		a.Send(1, payload(0, m))
	}
	_, b := openOwn(t, mn, "b:1", Config{Self: 1, N: 2, ClusterID: "burst"})
	a.SetPeerAddr(1, b.Addr())

	expectInOrder(t, collect(t, b, burst, 10*time.Second), 1, burst)
	// The writer counts its frames once its write returns, which may be
	// after the receiver has already acknowledged them.
	waitDrained(t, mn, a, burst)
	st := a.Stats()
	t.Logf("%d frames: %d ACKs", burst, st.Acks)
	if st.Acks >= burst {
		t.Errorf("%d ACKs for %d frames: not acknowledged per burst", st.Acks, burst)
	}
	if st.FramesOut != burst || st.Resent != 0 {
		t.Errorf("FramesOut %d, Resent %d; want %d, 0", st.FramesOut, st.Resent, burst)
	}
	if bs := b.Stats(); bs.Delivered != burst || bs.Duplicates != 0 {
		t.Errorf("receiver delivered %d with %d duplicates, want %d and 0", bs.Delivered, bs.Duplicates, burst)
	}
}
