package ingest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestWriterEnqueueContextCanceled pins the enqueue-path cancellation
// contract: a producer parked on a full queue whose context ends gives
// up with the context's error, counts as Canceled, and its op is never
// accepted — while producers whose context stays live keep blocking
// until space frees.
func TestWriterEnqueueContextCanceled(t *testing.T) {
	release := make(chan struct{})
	var processed []int
	var mu sync.Mutex
	w := NewWriter(1, func(batch []int) {
		<-release
		mu.Lock()
		processed = append(processed, batch...)
		mu.Unlock()
	})
	defer w.Close()

	// Fill: op 1 drains immediately into the (blocked) process call, op 2
	// occupies the queue slot, so op 3 must park.
	if err := w.EnqueueContext(context.Background(), 1); err != nil {
		t.Fatalf("enqueue 1: %v", err)
	}
	if err := w.EnqueueContext(context.Background(), 2); err != nil {
		t.Fatalf("enqueue 2: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		err := w.EnqueueContext(ctx, 3)
		if err == nil {
			err = errors.New("canceled op was accepted")
		}
		errCh <- err
	}()
	// Give the producer time to park, then cancel it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked enqueue returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled producer never returned")
	}
	if st := w.Stats(); st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}

	close(release)
	w.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, v := range processed {
		if v == 3 {
			t.Fatal("canceled op 3 was processed")
		}
	}
	if len(processed) != 2 {
		t.Fatalf("processed %v, want exactly ops 1 and 2", processed)
	}
}

// TestWriterEnqueueContextDeadline: a deadline that expires while parked
// behaves like cancellation (DeadlineExceeded), and a background context
// never cancels.
func TestWriterEnqueueContextDeadline(t *testing.T) {
	release := make(chan struct{})
	w := NewWriter(1, func(batch []int) { <-release })
	defer func() { close(release); w.Close() }()
	w.EnqueueContext(context.Background(), 1)
	w.EnqueueContext(context.Background(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := w.EnqueueContext(ctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline enqueue blocked far past its budget")
	}
}
