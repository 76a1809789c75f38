package snapcache

import (
	"context"
	"errors"
	"testing"
	"time"

	"leosim/internal/graph"
)

// TestAttachLifecycle pins the attachment contract: an artifact attaches
// only to the exact network it was derived from, is readable while the
// entry is resident, and dies with the entry.
func TestAttachLifecycle(t *testing.T) {
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{})
	ctx := context.Background()
	key := keyAt("s", 1)
	n, err := c.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}

	// Attaching against the wrong network instance is refused.
	if c.Attach(key, tinyNet("other"), "artifact") {
		t.Fatal("Attach accepted an artifact derived from a different network")
	}
	// Attaching to an absent key is refused.
	if c.Attach(keyAt("s", 2), n, "artifact") {
		t.Fatal("Attach accepted a key with no resident entry")
	}
	if _, _, ok := c.Attachment(key); ok {
		t.Fatal("Attachment reports an artifact before any successful Attach")
	}

	if !c.Attach(key, n, "artifact") {
		t.Fatal("Attach refused the entry's own network")
	}
	aux, net, ok := c.Attachment(key)
	if !ok || aux != "artifact" || net != n {
		t.Fatalf("Attachment = (%v, %p, %v), want the attached artifact and its network", aux, net, ok)
	}
	st := c.Stats()
	if st.Attachments != 1 || st.AttachMisses != 2 {
		t.Fatalf("stats: %d attachments, %d misses (want 1, 2)", st.Attachments, st.AttachMisses)
	}
}

// TestResidentEntryIsNeverReplaced pins first writer wins: inserting a key
// that is already resident — a primer Put, or the late adoption of a
// timed-out build — keeps the resident network and its attachment, and hands
// the resident network back, so an oracle derived from it is never silently
// dropped in favour of an equal graph nothing on the GET path would attach
// one to again.
func TestResidentEntryIsNeverReplaced(t *testing.T) {
	gate := make(chan struct{})
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		<-gate // the timed-out build of the second half, finishing late
		return tinyNet("late"), nil
	}, Options{BuildTimeout: 10 * time.Millisecond})
	key := keyAt("s", 1)
	n1, n2 := tinyNet("first"), tinyNet("second")
	if got := c.Put(key, n1); got != n1 {
		t.Fatal("Put into an empty slot returned a different network")
	}
	if !c.Attach(key, n1, "artifact") {
		t.Fatal("Attach refused a primed entry")
	}
	got := c.Put(key, n2)
	if n, _ := c.GetCached(key); n != n1 {
		t.Fatal("Put of a second network replaced the resident one")
	}
	if aux, n, ok := c.Attachment(key); !ok || aux != "artifact" || n != n1 {
		t.Fatalf("Attachment after a second Put = (%v, %v), want the artifact on the first network", aux, ok)
	}
	if got != n1 {
		t.Fatal("Put returned the network it was given, not the resident one")
	}
	if c.Attach(key, n2, "other") {
		t.Fatal("Attach accepted the network that lost the insert")
	}

	// A late adoption over a resident entry keeps it too.
	late := keyAt("s", 2)
	if _, err := c.Get(context.Background(), late); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow build: err = %v, want DeadlineExceeded", err)
	}
	c.Put(late, n2)
	if !c.Attach(late, n2, "artifact") {
		t.Fatal("Attach refused a primed entry")
	}
	close(gate)
	waitFor(t, "late adoption", func() bool { return c.Stats().LateBuilds == 1 })
	if aux, n, ok := c.Attachment(late); !ok || aux != "artifact" || n != n2 {
		t.Fatalf("late adoption over a primed entry: Attachment = (%v, %v), want the artifact on the primed network", aux, ok)
	}
}

// TestAttachEvicted pins LRU coupling: when capacity evicts an entry, its
// attachment goes with it.
func TestAttachEvicted(t *testing.T) {
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{Capacity: 1})
	k1, k2 := keyAt("s", 1), keyAt("s", 2)
	n1 := tinyNet("one")
	c.Put(k1, n1)
	if !c.Attach(k1, n1, "artifact") {
		t.Fatal("Attach refused resident entry")
	}
	c.Put(k2, tinyNet("two")) // capacity 1: evicts k1
	if _, _, ok := c.Attachment(k1); ok {
		t.Fatal("attachment survived eviction")
	}
}
