package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for exact TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestNumShards(t *testing.T) {
	cases := [][2]int{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32}}
	for _, c := range cases {
		if got := NumShards(c[0]); got != c[1] {
			t.Errorf("NumShards(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	// FNV-1a reference values: the shard assignment must be stable
	// across runs and machines, unlike the runtime map hash.
	if got := Hash(""); got != 2166136261 {
		t.Errorf("Hash(\"\") = %d, want 2166136261", got)
	}
}

func TestGetOrCreate(t *testing.T) {
	tab := New[int](Options{Shards: 4})
	made := 0
	mk := func() (int, error) { made++; return made, nil }

	v, hit, err := tab.GetOrCreate("k", mk)
	if err != nil || hit || v != 1 {
		t.Fatalf("first access: v=%d hit=%v err=%v", v, hit, err)
	}
	v, hit, err = tab.GetOrCreate("k", mk)
	if err != nil || !hit || v != 1 {
		t.Fatalf("second access: v=%d hit=%v err=%v", v, hit, err)
	}
	if made != 1 {
		t.Fatalf("mk ran %d times, want 1", made)
	}
	if _, _, err := tab.GetOrCreate("bad", func() (int, error) {
		return 0, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("mk error not propagated")
	}
	// A failed mk must leave no entry behind.
	if _, ok := tab.Get("bad"); ok {
		t.Fatal("failed mk left an entry")
	}
	if tab.Len() != 1 {
		t.Fatalf("len %d, want 1", tab.Len())
	}
}

func TestTTLEviction(t *testing.T) {
	clk := newFakeClock()
	tab := New[string](Options{Shards: 4, TTL: time.Minute, Now: clk.Now})
	mk := func(v string) func() (string, error) {
		return func() (string, error) { return v, nil }
	}

	if _, _, err := tab.GetOrCreate("a", mk("A")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.GetOrCreate("b", mk("B")); err != nil {
		t.Fatal(err)
	}

	// Keep "a" warm past b's expiry.
	clk.Advance(40 * time.Second)
	if _, hit := tab.Get("a"); !hit {
		t.Fatal("a missing before TTL")
	}
	clk.Advance(40 * time.Second) // b now idle 80s > TTL, a idle 40s

	if _, hit := tab.Get("b"); hit {
		t.Fatal("b survived past its TTL")
	}
	if _, hit := tab.Get("a"); !hit {
		t.Fatal("refreshed entry a evicted early")
	}
	total := tab.Stats().Total()
	if total.Evictions < 1 {
		t.Fatalf("evictions %d, want >= 1", total.Evictions)
	}

	// A full sweep clears everything once idle long enough.
	clk.Advance(2 * time.Minute)
	if n := tab.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1 (only a remained)", n)
	}
	if tab.Len() != 0 {
		t.Fatalf("len %d after sweep, want 0", tab.Len())
	}
}

func TestMaybeSweepRunsOnAccess(t *testing.T) {
	clk := newFakeClock()
	tab := New[int](Options{Shards: 2, TTL: time.Minute, SweepEvery: 10 * time.Second, Now: clk.Now})
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := tab.GetOrCreate(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Minute)
	// Accessing one fresh key must sweep the whole table, not just the
	// touched shard.
	if _, _, err := tab.GetOrCreate("fresh", func() (int, error) { return 99, nil }); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("len %d after piggybacked sweep, want 1 (just \"fresh\")", tab.Len())
	}
	if total := tab.Stats().Total(); total.Evictions != 8 {
		t.Fatalf("evictions %d, want 8", total.Evictions)
	}
}

func TestDrainAndRange(t *testing.T) {
	tab := New[int](Options{Shards: 8})
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		tab.Put(k, i)
	}

	// Range visits in sorted key order.
	var keys []string
	tab.Range(func(k string, v int) { keys = append(keys, k) })
	if len(keys) != 20 {
		t.Fatalf("range visited %d entries, want 20", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("range order not sorted: %q before %q", keys[i-1], keys[i])
		}
	}

	got := tab.Drain()
	if len(got) != 20 || tab.Len() != 0 {
		t.Fatalf("drain returned %d entries, table has %d left", len(got), tab.Len())
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if got[k] != i {
			t.Fatalf("drained %s = %d, want %d", k, got[k], i)
		}
	}
}

func TestStatsPerShard(t *testing.T) {
	tab := New[int](Options{Shards: 4})
	tab.Put("x", 1)
	tab.Get("x")
	tab.Get("y")
	s := tab.Stats()
	if len(s.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(s.Shards))
	}
	total := s.Total()
	if total.Size != 1 || total.Hits != 1 || total.Misses != 1 {
		t.Fatalf("totals %+v, want size 1, hits 1, misses 1", total)
	}
	// The hit must be attributed to x's shard specifically.
	xs := s.Shards[Hash("x")&3]
	if xs.Hits != 1 {
		t.Errorf("x's shard hits %d, want 1", xs.Hits)
	}
}

// TestConcurrentAccess hammers the table from many goroutines; run
// under -race this is the striping's safety proof.
func TestConcurrentAccess(t *testing.T) {
	clk := newFakeClock()
	tab := New[int](Options{Shards: 8, TTL: time.Minute, Now: clk.Now})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%37)
				switch i % 5 {
				case 0:
					tab.Put(k, i)
				case 1:
					tab.Get(k)
				case 2:
					if _, _, err := tab.GetOrCreate(k, func() (int, error) { return i, nil }); err != nil {
						t.Error(err)
						return
					}
				case 3:
					tab.Stats()
				default:
					tab.Delete(fmt.Sprintf("k%d", (i+13)%41))
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() > 41 {
		t.Fatalf("len %d, want <= 41 distinct keys", tab.Len())
	}
}
