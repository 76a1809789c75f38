package snapcache

import (
	"context"
	"testing"
	"time"

	"leosim/internal/graph"
)

// TestAttachLifecycle pins the attachment contract: an artifact attaches
// only to the exact network it was derived from, is readable while the
// entry is servable, and dies with the entry.
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

// TestAttachClearedOnRefresh pins the refresh rule: re-inserting a
// *different* network under the same key clears the attachment (the
// artifact described the old graph), while a same-pointer refresh keeps it.
func TestAttachClearedOnRefresh(t *testing.T) {
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{})
	key := keyAt("s", 1)
	n1 := tinyNet("first")
	c.Put(key, n1)
	if !c.Attach(key, n1, "artifact") {
		t.Fatal("Attach refused a primed entry")
	}

	// Same network re-deposited: the artifact still describes it.
	c.Put(key, n1)
	if _, _, ok := c.Attachment(key); !ok {
		t.Fatal("same-network refresh dropped the attachment")
	}

	// A genuinely new network: the artifact must go.
	n2 := tinyNet("second")
	c.Put(key, n2)
	if _, _, ok := c.Attachment(key); ok {
		t.Fatal("attachment survived a refresh with a different network")
	}
	// And the old network no longer accepts attaches under this key.
	if c.Attach(key, n1, "artifact") {
		t.Fatal("Attach accepted the superseded network")
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

// TestAttachmentTTLWindow pins expiry coupling: the attachment is servable
// exactly as long as its entry is (TTL + StaleFor), then becomes a miss.
func TestAttachmentTTLWindow(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{TTL: 10 * time.Second, StaleFor: 5 * time.Second, Clock: clock})
	key := keyAt("s", 1)
	n := tinyNet("ttl")
	c.Put(key, n)
	if !c.Attach(key, n, "artifact") {
		t.Fatal("Attach refused fresh entry")
	}

	now = now.Add(9 * time.Second) // fresh
	if _, _, ok := c.Attachment(key); !ok {
		t.Fatal("attachment missing within TTL")
	}
	now = now.Add(3 * time.Second) // expired but within StaleFor
	if _, _, ok := c.Attachment(key); !ok {
		t.Fatal("attachment missing in the stale-while-revalidate window")
	}
	now = now.Add(4 * time.Second) // past TTL+StaleFor
	if _, _, ok := c.Attachment(key); ok {
		t.Fatal("attachment served past TTL+StaleFor")
	}
}
