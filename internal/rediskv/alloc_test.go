package rediskv

import (
	"strconv"
	"testing"

	"pmnet/internal/kv"
	"pmnet/internal/raceflag"
)

// fullTimeline pushes a retwis timeline to its 100-item bound, so every later
// push walks the trim boundary and rewrites a ~1.3 KB value.
func fullTimeline(tb testing.TB, s *Store, key []byte) {
	tb.Helper()
	for i := 0; i < 100; i++ {
		if _, err := s.LPush(key, []byte("u999999-"+strconv.Itoa(1000000+i)), 100); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRedisCommandAllocs pins the retwis commands to zero allocations in
// steady state: a command reads the stored value in place, builds what it
// writes in the store's one buffer and answers in the store's one item array
// (the engine's Put is pinned to zero by kv.TestEnginePutAllocs).
func TestRedisCommandAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	s, err := Open(kv.NewArena(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	var (
		post     = make([]byte, 100)
		postKey  = []byte("post:u7-1")
		counter  = []byte("next_post_id")
		timeline = []byte("timeline:7")
		set      = []byte("followers:7")
		pid      = []byte("u999999-1000000")
		member   = make([]byte, 0, 20)
		n        = 0
	)
	fullTimeline(t, s, timeline)
	// The largest value the commands below build, once: the buffer has grown.
	if err := s.Set([]byte("big"), make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		cmd  func()
	}{
		{"SET", func() { check(s.Set(postKey, post)) }},
		{"INCR", func() { _, err := s.Incr(counter); check(err) }},
		{"LPUSH onto a full timeline", func() {
			if n, err := s.LPush(timeline, pid, 100); err != nil || n != 100 {
				t.Fatalf("LPush: %d, %v", n, err)
			}
		}},
		{"SADD of a new member", func() {
			n++
			member = strconv.AppendInt(member[:0], int64(n), 10)
			if added, err := s.SAdd(set, member); err != nil || !added {
				t.Fatalf("SAdd %s: %v, %v", member, added, err)
			}
		}},
		{"SADD of a duplicate", func() {
			if added, err := s.SAdd(set, member); err != nil || added {
				t.Fatalf("SAdd %s again: %v, %v", member, added, err)
			}
		}},
		{"LRANGE 0..9", func() {
			if items, err := s.LRange(timeline, 0, 9); err != nil || len(items) != 10 {
				t.Fatalf("LRange: %d items, %v", len(items), err)
			}
		}},
		{"GET", func() {
			if v, ok, err := s.Get(postKey); err != nil || !ok || len(v) != len(post) {
				t.Fatalf("Get: %d bytes, %v, %v", len(v), ok, err)
			}
		}},
	} {
		c.cmd() // the key exists, the item array has its size
		if got := testing.AllocsPerRun(200, c.cmd); got != 0 {
			t.Errorf("%s allocated %.2f objects, want 0", c.name, got)
		}
	}
}

// BenchmarkRedisLPush: the retwis post's push onto a full 100-item timeline —
// `make microbench` only.
func BenchmarkRedisLPush(b *testing.B) {
	s, err := Open(kv.NewArena(8 << 20))
	if err != nil {
		b.Fatal(err)
	}
	timeline, pid := []byte("timeline:7"), []byte("u999999-1000000")
	fullTimeline(b, s, timeline)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LPush(timeline, pid, 100); err != nil {
			b.Fatal(err)
		}
	}
}
