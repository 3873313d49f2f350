package comms

import (
	"testing"

	"embench/internal/modules/memory"
)

func rec(step int, key string, tokens int) memory.Record {
	return memory.Record{Step: step, Kind: memory.Observation, Key: key, Tokens: tokens}
}

func TestNovel(t *testing.T) {
	store := memory.NewStore(-1)
	known := rec(3, "obj:apple", 5)
	known.Payload = "kitchen"
	store.Add(known)
	// Same key, same content: not novel even when fresher.
	dup := rec(5, "obj:apple", 5)
	dup.Payload = "kitchen"
	if Novel(Message{Records: []memory.Record{dup}}, store) {
		t.Fatal("unchanged fact should not be novel")
	}
	// Same key, changed content: novel.
	moved := rec(5, "obj:apple", 5)
	moved.Payload = "bedroom"
	if !Novel(Message{Records: []memory.Record{moved}}, store) {
		t.Fatal("changed fact should be novel")
	}
	// Older record with different content: not novel (receiver knows better).
	old := rec(2, "obj:apple", 5)
	old.Payload = "hallway"
	if Novel(Message{Records: []memory.Record{old}}, store) {
		t.Fatal("outdated record should not be novel")
	}
	// Unknown key: novel.
	if !Novel(Message{Records: []memory.Record{rec(1, "obj:pear", 5)}}, store) {
		t.Fatal("unknown key should be novel")
	}
	// Keyless records carry no checkable content.
	if Novel(Message{Records: []memory.Record{{Step: 9, Tokens: 3}}}, store) {
		t.Fatal("keyless record should not count as novel")
	}
}

func TestFilter(t *testing.T) {
	recs := []memory.Record{rec(1, "a", 2), rec(3, "b", 2), rec(5, "c", 2), rec(7, "d", 2)}
	out := Filter(recs, 2, 0)
	if len(out) != 3 || out[0].Key != "b" {
		t.Fatalf("Filter by lastShared wrong: %+v", out)
	}
	out = Filter(recs, 0, 2)
	if len(out) != 2 || out[0].Key != "c" || out[1].Key != "d" {
		t.Fatalf("Filter cap should keep newest: %+v", out)
	}
	if got := Filter(recs, 99, 0); len(got) != 0 {
		t.Fatal("nothing new should yield empty filter")
	}
}

func TestMessageTokens(t *testing.T) {
	if got := MessageTokens(nil); got != 12 {
		t.Fatalf("empty message tokens = %d, want framing only", got)
	}
	got := MessageTokens([]memory.Record{rec(0, "a", 10), rec(0, "b", 20)})
	if got != 42 {
		t.Fatalf("MessageTokens = %d, want 42", got)
	}
}
