package readcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetFillsOnceThenHits(t *testing.T) {
	c := New(time.Minute)
	fills := 0
	fill := func() ([]byte, error) { fills++; return []byte("v"), nil }
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", fill)
		if err != nil || string(v) != "v" {
			t.Fatalf("get %d = %q, %v", i, v, err)
		}
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	if st.OldestAge <= 0 {
		t.Errorf("oldest age = %v, want > 0", st.OldestAge)
	}
}

func TestSingleflightSharesOneFill(t *testing.T) {
	c := New(time.Minute)
	var fills atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() ([]byte, error) {
				fills.Add(1)
				<-gate // hold every other Get in the waiters path
				return []byte("v"), nil
			})
			if err != nil || string(v) != "v" {
				t.Errorf("get = %q, %v", v, err)
			}
		}()
	}
	// Let the goroutines pile up behind the one in-flight fill.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Errorf("fill ran %d times under %d concurrent gets, want 1", got, n)
	}
	st := c.Stats()
	if st.Hits+st.Misses != n {
		t.Errorf("hits %d + misses %d != %d gets", st.Hits, st.Misses, n)
	}
}

func TestTTLExpiryRefills(t *testing.T) {
	c := New(10 * time.Millisecond)
	fills := 0
	fill := func() ([]byte, error) { fills++; return []byte("v"), nil }
	c.Get("k", fill)
	time.Sleep(20 * time.Millisecond)
	c.Get("k", fill)
	if fills != 2 {
		t.Errorf("fill ran %d times across an expiry, want 2", fills)
	}
}

func TestErrorIsNotCached(t *testing.T) {
	c := New(time.Minute)
	boom := errors.New("boom")
	if _, err := c.Get("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := c.Get("k", func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || string(v) != "v" {
		t.Fatalf("get after error = %q, %v, want fresh fill", v, err)
	}
}

func TestInvalidateFuncDropsOnlyMatches(t *testing.T) {
	c := New(time.Minute)
	fills := map[string]int{}
	fillFor := func(k string) func() ([]byte, error) {
		return func() ([]byte, error) { fills[k]++; return []byte(k), nil }
	}
	keys := []string{"facts|0|a", "facts|1|a", "facts|-1|a", "top|10"}
	for _, k := range keys {
		c.Get(k, fillFor(k))
	}
	// Shard 1 advanced: its keys and the cross-shard ones die, shard 0's
	// entry survives.
	c.InvalidateFunc(func(k string) bool { return k != "facts|0|a" })
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries after selective invalidate = %d, want 1", st.Entries)
	}
	for _, k := range keys {
		c.Get(k, fillFor(k))
	}
	for _, k := range keys {
		want := 2
		if k == "facts|0|a" {
			want = 1 // survived: second Get was a hit
		}
		if fills[k] != want {
			t.Errorf("key %q filled %d times, want %d", k, fills[k], want)
		}
	}
}

func TestInvalidateDropsEntries(t *testing.T) {
	c := New(time.Minute)
	fills := 0
	fill := func() ([]byte, error) { fills++; return []byte("v"), nil }
	c.Get("k", fill)
	c.InvalidateFunc(func(string) bool { return true })
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries after invalidate = %d, want 0", st.Entries)
	}
	c.Get("k", fill)
	if fills != 2 {
		t.Errorf("fill ran %d times across an invalidate, want 2", fills)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("counters after invalidate = %+v, want them to survive (0 hits, 2 misses)", st)
	}
}
