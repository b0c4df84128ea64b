package rediskv

import (
	"errors"
	"fmt"
	"testing"

	"pmnet/internal/kv"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(kv.NewArena(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStringSetGet(t *testing.T) {
	s := newStore(t)
	if err := s.Set([]byte("user:1"), []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("user:1"))
	if err != nil || !ok || string(v) != "alice" {
		t.Fatalf("%q %v %v", v, ok, err)
	}
	if _, ok, _ := s.Get([]byte("nope")); ok {
		t.Fatal("phantom key")
	}
	if del, _ := s.Del([]byte("user:1")); !del {
		t.Fatal("delete failed")
	}
	if s.Exists([]byte("user:1")) {
		t.Fatal("key survived delete")
	}
}

func TestCounter(t *testing.T) {
	s := newStore(t)
	for want := int64(1); want <= 5; want++ {
		got, err := s.Incr([]byte("next_uid"))
		if err != nil || got != want {
			t.Fatalf("Incr = %d, %v; want %d", got, err, want)
		}
	}
	v, err := s.GetCounter([]byte("next_uid"))
	if err != nil || v != 5 {
		t.Fatalf("GetCounter = %d, %v", v, err)
	}
	if v, _ := s.GetCounter([]byte("absent")); v != 0 {
		t.Fatal("absent counter nonzero")
	}
}

func TestListOps(t *testing.T) {
	s := newStore(t)
	key := []byte("timeline:7")
	for i := 1; i <= 5; i++ {
		n, err := s.LPush(key, []byte(fmt.Sprintf("post%d", i)), 0)
		if err != nil || n != i {
			t.Fatalf("LPush: %d %v", n, err)
		}
	}
	// Newest first.
	got, err := s.LRange(key, 0, 2)
	if err != nil || len(got) != 3 {
		t.Fatalf("LRange: %v %v", got, err)
	}
	if string(got[0]) != "post5" || string(got[2]) != "post3" {
		t.Fatalf("order wrong: %q %q", got[0], got[2])
	}
	if all, _ := s.LRange(key, 0, -1); len(all) != 5 {
		t.Fatalf("LRange to end: %d", len(all))
	}
	if n, _ := s.LLen(key); n != 5 {
		t.Fatalf("LLen = %d", n)
	}
	// Out-of-range handling.
	if out, _ := s.LRange(key, 10, 20); out != nil {
		t.Fatal("range past end should be empty")
	}
}

func TestListTrim(t *testing.T) {
	s := newStore(t)
	key := []byte("tl")
	for i := 0; i < 10; i++ {
		if _, err := s.LPush(key, []byte{byte(i)}, 4); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := s.LLen(key)
	if n != 4 {
		t.Fatalf("trimmed length %d, want 4", n)
	}
	got, _ := s.LRange(key, 0, -1)
	if got[0][0] != 9 {
		t.Fatal("trim dropped the newest instead of the oldest")
	}
}

func TestSetOps(t *testing.T) {
	s := newStore(t)
	key := []byte("followers:3")
	added, err := s.SAdd(key, []byte("u1"))
	if err != nil || !added {
		t.Fatalf("SAdd: %v %v", added, err)
	}
	if added, _ := s.SAdd(key, []byte("u1")); added {
		t.Fatal("duplicate member added")
	}
	_, _ = s.SAdd(key, []byte("u2"))
	if n, _ := s.SCard(key); n != 2 {
		t.Fatalf("SCard = %d", n)
	}
	if m, _ := s.SIsMember(key, []byte("u2")); !m {
		t.Fatal("membership lost")
	}
	if m, _ := s.SIsMember(key, []byte("u9")); m {
		t.Fatal("phantom member")
	}
	ms, _ := s.SMembers(key)
	if len(ms) != 2 {
		t.Fatalf("SMembers = %v", ms)
	}
}

func TestWrongTypeErrors(t *testing.T) {
	s := newStore(t)
	_ = s.Set([]byte("str"), []byte("x"))
	if _, err := s.Incr([]byte("str")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Incr on string: %v", err)
	}
	if _, err := s.LPush([]byte("str"), []byte("y"), 0); !errors.Is(err, ErrWrongType) {
		t.Fatalf("LPush on string: %v", err)
	}
	if _, err := s.SAdd([]byte("str"), []byte("y")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("SAdd on string: %v", err)
	}
	_, _ = s.Incr([]byte("ctr"))
	if _, _, err := s.Get([]byte("ctr")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Get on counter: %v", err)
	}
}

func TestStoreSurvivesPowerFail(t *testing.T) {
	a := kv.NewArena(8 << 20)
	s, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Set([]byte("k"), []byte("v"))
	_, _ = s.Incr([]byte("c"))
	_, _ = s.LPush([]byte("l"), []byte("item"), 0)
	_, _ = s.SAdd([]byte("z"), []byte("m"))

	if err := a.Reopen(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("string lost")
	}
	if c, _ := s2.GetCounter([]byte("c")); c != 1 {
		t.Fatal("counter lost")
	}
	if n, _ := s2.LLen([]byte("l")); n != 1 {
		t.Fatal("list lost")
	}
	if m, _ := s2.SIsMember([]byte("z"), []byte("m")); !m {
		t.Fatal("set lost")
	}
}
