package pool

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	p := New(1, 1)
	job := func() {
		started <- struct{}{}
		<-block
	}
	if err := p.TrySubmit(job); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	if err := p.TrySubmit(job); err != nil {
		t.Fatal(err) // fills the queue
	}
	if err := p.TrySubmit(job); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	close(block)
	<-started // second job starts after the first unblocks
	p.Close()
	if err := p.TrySubmit(job); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
	if err := p.Submit(job); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
}

func TestBlockingSubmitDrains(t *testing.T) {
	const jobs = 100
	p := New(4, 2) // queue much smaller than the job count
	var ran atomic.Int64
	for i := 0; i < jobs; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if got := ran.Load(); got != jobs {
		t.Fatalf("ran %d of %d jobs", got, jobs)
	}
}
