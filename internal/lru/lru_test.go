package lru

import (
	"fmt"
	"reflect"
	"testing"
)

// op is one step of a table case: "put" stores val at cost, "get" and "has"
// look key up with and without touching recency, "rm" removes it.
type op struct {
	do   string
	key  string
	val  int
	cost int64

	ok       bool // get/has/rm: found; put: inserted
	wantVal  int  // get
	wantEvct int  // put
}

func TestCache(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		ops      []op
		evicted  []string // callback log, "key=val" in firing order
		keys     []string // present afterwards
		cost     int64
	}{
		{
			name: "capacity is total cost, eviction from the least recently used end", capacity: 10,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 4, ok: true},
				{do: "put", key: "b", val: 2, cost: 4, ok: true},
				{do: "put", key: "c", val: 3, cost: 2, ok: true}, // exactly full
				{do: "put", key: "d", val: 4, cost: 5, ok: true, wantEvct: 2},
			},
			evicted: []string{"a=1", "b=2"}, keys: []string{"c", "d"}, cost: 7,
		},
		{
			name: "entry-count use: cost 1 each, one out per one in", capacity: 2,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 1, ok: true},
				{do: "put", key: "b", val: 2, cost: 1, ok: true},
				{do: "get", key: "a", ok: true, wantVal: 1}, // a is now most recently used
				{do: "put", key: "c", val: 3, cost: 1, ok: true, wantEvct: 1},
				{do: "get", key: "b"},
				{do: "get", key: "a", ok: true, wantVal: 1},
			},
			evicted: []string{"b=2"}, keys: []string{"a", "c"}, cost: 2,
		},
		{
			name: "has does not touch recency", capacity: 2,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 1, ok: true},
				{do: "put", key: "b", val: 2, cost: 1, ok: true},
				{do: "has", key: "a", ok: true},
				{do: "put", key: "c", val: 3, cost: 1, ok: true, wantEvct: 1},
				{do: "has", key: "a"},
			},
			evicted: []string{"a=1"}, keys: []string{"b", "c"}, cost: 2,
		},
		{
			name: "refresh replaces value and cost, moves to front, fires nothing", capacity: 4,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 2, ok: true},
				{do: "put", key: "b", val: 2, cost: 2, ok: true},
				{do: "put", key: "a", val: 10, cost: 1}, // not inserted, a now newest
				{do: "get", key: "a", ok: true, wantVal: 10},
				{do: "put", key: "c", val: 3, cost: 2, ok: true, wantEvct: 1}, // b is the victim, not a
			},
			evicted: []string{"b=2"}, keys: []string{"a", "c"}, cost: 3,
		},
		{
			name: "refresh to a larger cost evicts others, never itself", capacity: 4,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 2, ok: true},
				{do: "put", key: "b", val: 2, cost: 2, ok: true},
				{do: "put", key: "a", val: 1, cost: 3, wantEvct: 1},
			},
			evicted: []string{"b=2"}, keys: []string{"a"}, cost: 3,
		},
		{
			name: "the newest entry stays even when it alone is oversized", capacity: 10,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 3, ok: true},
				{do: "put", key: "b", val: 2, cost: 3, ok: true},
				{do: "put", key: "huge", val: 3, cost: 50, ok: true, wantEvct: 2},
				{do: "get", key: "huge", ok: true, wantVal: 3},
				{do: "put", key: "c", val: 4, cost: 1, ok: true, wantEvct: 1}, // now huge goes
			},
			evicted: []string{"a=1", "b=2", "huge=3"}, keys: []string{"c"}, cost: 1,
		},
		{
			name: "remove reports presence and does not fire the callback", capacity: 4,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 2, ok: true},
				{do: "rm", key: "a", ok: true},
				{do: "rm", key: "a"},
				{do: "get", key: "a"},
				{do: "put", key: "b", val: 2, cost: 4, ok: true}, // a's cost was given back
			},
			keys: []string{"b"}, cost: 4,
		},
		{
			name: "capacity zero disables", capacity: 0,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 1},
				{do: "get", key: "a"},
				{do: "has", key: "a"},
				{do: "rm", key: "a"},
			},
		},
		{
			name: "negative capacity disables", capacity: -1,
			ops: []op{
				{do: "put", key: "a", val: 1, cost: 0},
				{do: "get", key: "a"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			c := New(tc.capacity, func(k string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", k, v)) })
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					inserted, n := c.Put(o.key, o.val, o.cost)
					if inserted != o.ok || n != o.wantEvct {
						t.Fatalf("op %d put %s: (inserted %v, evicted %d), want (%v, %d)", i, o.key, inserted, n, o.ok, o.wantEvct)
					}
				case "get":
					v, ok := c.Get(o.key)
					if ok != o.ok || v != o.wantVal {
						t.Fatalf("op %d get %s: (%d, %v), want (%d, %v)", i, o.key, v, ok, o.wantVal, o.ok)
					}
				case "has":
					if ok := c.Contains(o.key); ok != o.ok {
						t.Fatalf("op %d has %s: %v, want %v", i, o.key, ok, o.ok)
					}
				case "rm":
					if ok := c.Remove(o.key); ok != o.ok {
						t.Fatalf("op %d rm %s: %v, want %v", i, o.key, ok, o.ok)
					}
				default:
					t.Fatalf("op %d: unknown %q", i, o.do)
				}
			}
			if !reflect.DeepEqual(evicted, tc.evicted) {
				t.Errorf("callback log %v, want %v (exactly once per eviction, in eviction order)", evicted, tc.evicted)
			}
			if c.Len() != len(tc.keys) || c.Cost() != tc.cost {
				t.Errorf("(len, cost) = (%d, %d), want (%d, %d)", c.Len(), c.Cost(), len(tc.keys), tc.cost)
			}
			for _, k := range tc.keys {
				if !c.Contains(k) {
					t.Errorf("%s missing afterwards", k)
				}
			}
		})
	}
}

// TestNilCallback: users that hang nothing off evictions pass nil.
func TestNilCallback(t *testing.T) {
	c := New[string, int](1, nil)
	c.Put("a", 1, 1)
	if _, evicted := c.Put("b", 2, 1); evicted != 1 {
		t.Fatalf("evicted %d, want 1", evicted)
	}
}
