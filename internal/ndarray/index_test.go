package ndarray

import (
	"math/rand"
	"slices"
	"testing"
)

// linearOverlaps is the oracle for BoxIndex: the indices of the boxes
// that overlap q, in list order.
func linearOverlaps(boxes []Box, q Box) []int {
	var out []int
	for i, b := range boxes {
		if b.Overlaps(q) {
			out = append(out, i)
		}
	}
	return out
}

// indexChecker drives a BoxIndex the way its callers do: adds append to a
// caller-owned list and mark the index stale, and a query rebuilds it
// first when stale. Every query is checked against linearOverlaps.
type indexChecker struct {
	t     testing.TB
	boxes []Box
	index BoxIndex
	stale bool
}

func (c *indexChecker) box(i int) Box { return c.boxes[i] }

func (c *indexChecker) add(b Box) {
	c.boxes = append(c.boxes, b)
	c.stale = true
}

func (c *indexChecker) query(q Box) {
	c.t.Helper()
	if c.stale {
		c.index.Build(len(c.boxes), c.box)
		c.stale = false
	}
	// A non-empty dst must be appended to, not overwritten.
	got := c.index.Query(q, c.box, []int{-1})
	if got[0] != -1 {
		c.t.Fatalf("Query overwrote dst[0]: %v", got)
	}
	if want := linearOverlaps(c.boxes, q); !slices.Equal(got[1:], want) {
		c.t.Fatalf("query %v over %v:\nindex  %v\nlinear %v", q, c.boxes, got[1:], want)
	}
}

func bx(lo, hi []uint64) Box { return Box{Lo: lo, Hi: hi} }

func TestBoxIndexCases(t *testing.T) {
	u := func(v ...uint64) []uint64 { return v }
	cases := []struct {
		name    string
		boxes   []Box
		queries []Box
	}{
		{"zero extent", []Box{bx(u(3, 3), u(3, 5)), bx(u(0, 0), u(4, 4)), bx(u(2, 2), u(2, 2))},
			[]Box{bx(u(0, 0), u(8, 8)), bx(u(3, 3), u(3, 3)), bx(u(2, 2), u(3, 3))}},
		{"duplicates and same Lo", []Box{bx(u(1, 1), u(3, 3)), bx(u(1, 1), u(3, 3)), bx(u(1, 1), u(9, 2)),
			bx(u(1, 1), u(2, 9)), bx(u(1, 1), u(3, 3))},
			[]Box{bx(u(2, 2), u(3, 3)), bx(u(5, 0), u(6, 2)), bx(u(0, 5), u(2, 6))}},
		{"one box wider than every other", []Box{bx(u(0, 0), u(1, 1)), bx(u(1, 0), u(2, 1)),
			bx(u(0, 1), u(100, 2)), bx(u(2, 0), u(3, 1))},
			[]Box{bx(u(90, 0), u(91, 2)), bx(u(99, 1), u(100, 2)), bx(u(100, 1), u(101, 2))}},
		{"query rank differs", []Box{bx(u(0, 0), u(4, 4)), bx(u(4, 0), u(8, 4))},
			[]Box{bx(u(0), u(8)), bx(u(0, 0, 0), u(8, 8, 8)), bx(nil, nil)}},
		{"mixed ranks", []Box{bx(u(0), u(4)), bx(u(0, 0), u(4, 4)), bx(nil, nil), bx(u(0, 0, 0), u(4, 4, 4)),
			bx(u(2), u(6))},
			[]Box{bx(u(1), u(3)), bx(u(1, 1), u(3, 3)), bx(u(1, 1, 1), u(3, 3, 3)), bx(u(5), u(6))}},
		{"rank 0", []Box{bx(nil, nil), bx(u(0), u(1)), bx(nil, nil), bx([]uint64{}, []uint64{})},
			[]Box{bx(nil, nil), bx(u(0), u(1))}},
		{"rank 0 only", []Box{bx(nil, nil), bx(nil, nil)},
			[]Box{bx(nil, nil), bx(u(0), u(1))}},
		{"empty", nil, []Box{bx(nil, nil), bx(u(0), u(1))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &indexChecker{t: t, stale: true}
			for _, b := range tc.boxes {
				c.add(b)
			}
			for _, q := range tc.queries {
				c.query(q)
			}
		})
	}
}

// TestBoxIndexProperty interleaves random adds and queries over mixed
// ranks, zero extents, duplicates and occasional very wide boxes, and
// checks every query against the linear scan.
func TestBoxIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	randBox := func(rank int) Box {
		b := Box{Lo: make([]uint64, rank), Hi: make([]uint64, rank)}
		for d := range b.Lo {
			b.Lo[d] = uint64(rng.Intn(40))
			w := uint64(rng.Intn(10))
			if rng.Intn(20) == 0 {
				w = 1000
			}
			b.Hi[d] = b.Lo[d] + w
		}
		return b
	}
	for round := 0; round < 200; round++ {
		c := &indexChecker{t: t, stale: true}
		maxRank := rng.Intn(4)
		for op := 0; op < 120; op++ {
			rank := maxRank
			if rng.Intn(8) == 0 {
				rank = rng.Intn(4)
			}
			switch {
			case rng.Intn(3) == 0:
				c.query(randBox(rank))
			case len(c.boxes) > 0 && rng.Intn(6) == 0:
				c.add(c.boxes[rng.Intn(len(c.boxes))])
			default:
				c.add(randBox(rank))
			}
		}
	}
}

// FuzzBoxIndex reads a stream of operations: a byte whose low two bits
// are zero is a query, any other byte an add; the box follows as a rank
// byte (0-3) and a lo/width byte pair per dimension, widths from zero.
// Every query must match the linear scan element for element.
func FuzzBoxIndex(f *testing.F) {
	f.Add([]byte{1, 2, 0, 4, 0, 4, 1, 2, 4, 4, 0, 4, 0, 2, 2, 4, 1, 4})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 1, 1, 3, 2, 0, 0, 1, 0})            // rank 0
	f.Add([]byte{1, 1, 3, 0, 1, 2, 0, 0, 0, 2, 3, 2, 1, 2, 200, 0, 4}) // mixed ranks, wide box
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		c := &indexChecker{t: t, stale: true}
		for ops := 0; ops < 256; ops++ {
			op, ok := next()
			if !ok {
				return
			}
			rb, ok := next()
			if !ok {
				return
			}
			rank := int(rb % 4)
			b := Box{Lo: make([]uint64, rank), Hi: make([]uint64, rank)}
			for d := 0; d < rank; d++ {
				lo, _ := next()
				w, _ := next()
				b.Lo[d] = uint64(lo % 32)
				b.Hi[d] = b.Lo[d] + uint64(w)
			}
			if op%4 == 0 {
				c.query(b)
			} else {
				c.add(b)
			}
		}
	})
}
