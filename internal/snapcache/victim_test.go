package snapcache

import (
	"context"
	"math/rand"
	"testing"

	"leosim/internal/graph"
)

// victimKey names a test key by kind and number: "h3" is a healthy key, "m3"
// the same instant under a fault mask.
func victimKey(name string) whatIf {
	k := whatIf{Key: keyAt("s", int(name[1]-'0'))}
	if name[0] == 'm' {
		k.mask = "sat:0.05:" + name[1:]
	}
	return k
}

// TestVictimOrder walks Get/Put/Attach sequences over mixed keys and names the
// entry each arrival must push out: the least recently used entry without an
// attachment, and the plain LRU entry once every resident one carries one.
func TestVictimOrder(t *testing.T) {
	type step struct {
		op     string // get (build on miss) | put | attach | replace (put another network for a resident key)
		key    string
		evicts string // the key this step pushes out, "" for none
	}
	for _, tc := range []struct {
		name  string
		cap   int
		steps []step
	}{
		{"what-ifs and bare healthy entries age each other out in LRU order beside an attached day", 4, []step{
			{"put", "h1", ""}, {"attach", "h1", ""},
			{"put", "h2", ""}, {"attach", "h2", ""},
			{"get", "m1", ""}, {"get", "m2", ""},
			{"get", "h1", ""}, {"get", "h2", ""}, // recency does not matter to the attached ones
			{"get", "m3", "m1"},
			{"get", "h3", "m2"}, // a bare healthy key has no rank over a masked one
			{"get", "m3", ""},
			{"get", "m4", "h3"},
			{"get", "m4", ""}, {"get", "m3", ""}, // both spare slots serve what-ifs
		}},
		{"entries without an attachment go before entries with one, LRU within each", 4, []step{
			{"put", "h1", ""}, {"attach", "h1", ""},
			{"put", "h2", ""},
			{"put", "h3", ""}, {"attach", "h3", ""},
			{"put", "h4", ""},
			{"get", "h2", ""}, // h4 is now the colder bare key; h1 the coldest overall
			{"put", "h5", "h4"},
			{"put", "h6", "h2"},
			{"put", "h7", "h5"},
			{"attach", "h6", ""}, {"attach", "h7", ""},
			{"put", "h8", "h1"}, // all attached: plain LRU again
		}},
		{"a masked key that carries an attachment is kept like any other", 3, []step{
			{"get", "m1", ""}, {"attach", "m1", ""},
			{"put", "h1", ""}, {"put", "h2", ""},
			{"put", "h3", "h1"},
			{"get", "m2", "h2"},
			{"get", "m1", ""},
		}},
		{"re-inserting a resident key keeps its attachment", 3, []step{
			{"put", "h1", ""}, {"attach", "h1", ""},
			{"put", "h2", ""}, {"attach", "h2", ""},
			{"put", "h3", ""}, {"attach", "h3", ""},
			{"replace", "h1", ""}, // the resident network and its oracle stay; h1 is now the most recent
			{"put", "h4", "h2"},   // all attached: plain LRU
			{"put", "h5", "h4"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(func(ctx context.Context, k whatIf) (*graph.Network, error) {
				return tinyNet(k.String()), nil
			}, Options{Capacity: tc.cap})
			resident := map[string]bool{}
			for i, st := range tc.steps {
				key := victimKey(st.key)
				switch st.op {
				case "get":
					if _, err := c.Get(context.Background(), key); err != nil {
						t.Fatal(err)
					}
				case "put", "replace":
					c.Put(key, tinyNet(st.key))
				case "attach":
					n, _ := c.GetCached(key)
					if !c.Attach(key, n, "oracle of "+st.key) {
						t.Fatalf("step %d: attach %s refused", i, st.key)
					}
				}
				resident[st.key] = true
				gone := ""
				for name := range resident {
					if !c.Peek(victimKey(name)) {
						gone += name
						delete(resident, name)
					}
				}
				if gone != st.evicts {
					t.Fatalf("step %d (%s %s) evicted %q, want %q", i, st.op, st.key, gone, st.evicts)
				}
			}
			want := int64(0)
			for _, st := range tc.steps {
				if st.evicts != "" {
					want++
				}
			}
			if got := c.Stats().Evictions; got != want {
				t.Fatalf("Evictions = %d, want %d", got, want)
			}
		})
	}
}

// TestNoAttachmentIsPlainLRU: with no attachments — the Sim's cache of healthy
// networks, or a server that never primed an oracle — the victim rule is the
// plain LRU it replaced, step for step against a list model, whatever mix of
// healthy and masked keys arrives.
func TestNoAttachmentIsPlainLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const capacity = 4
	c := New(func(ctx context.Context, k whatIf) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{Capacity: capacity})
	var names []string
	for d := 0; d < 9; d++ {
		names = append(names, "h"+string(rune('0'+d)), "m"+string(rune('0'+d)))
	}
	var model []string // front = most recently used
	touch := func(name string) {
		for i, m := range model {
			if m == name {
				model = append(model[:i], model[i+1:]...)
				break
			}
		}
		model = append([]string{name}, model...)
		if len(model) > capacity {
			model = model[:capacity]
		}
	}
	for step := 0; step < 800; step++ {
		name := names[rng.Intn(len(names))]
		if rng.Intn(3) == 0 {
			c.Put(victimKey(name), tinyNet(name))
		} else if _, err := c.Get(context.Background(), victimKey(name)); err != nil {
			t.Fatal(err)
		}
		touch(name)
		for _, name := range names {
			want := false
			for _, m := range model {
				want = want || m == name
			}
			if got := c.Peek(victimKey(name)); got != want {
				t.Fatalf("step %d: %s resident = %v, the LRU model says %v (model %v)", step, name, got, want, model)
			}
		}
	}
}
