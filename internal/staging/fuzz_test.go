package staging

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

// FuzzBlockSetQuery feeds the spatial index arbitrary 2-D block layouts
// — single-dimension tilings that take the bisection path as well as
// mixed layouts served by the box index — and checks every query against
// brute-force scans: the covered-element count against the inserted
// boxes, and the returned sub-blocks, in order, against a linear
// Intersect scan over the set's blocks as the query left them (the
// single-dimension path sorts them; the mixed path keeps insertion
// order). The encoding is 4 bytes per box (lo/width per dimension); the
// final 4 bytes are the query box.
func FuzzBlockSetQuery(f *testing.F) {
	// Row-slab tiling plus a query spanning two slabs.
	f.Add([]byte{0, 4, 0, 8, 4, 4, 0, 8, 8, 4, 0, 8, 2, 8, 1, 6})
	// Mixed layout (differs in both dimensions): box-index path.
	f.Add([]byte{0, 4, 0, 4, 4, 4, 4, 4, 0, 4, 4, 4, 1, 6, 1, 6})
	// Duplicate and overlapping boxes.
	f.Add([]byte{3, 5, 3, 5, 3, 5, 3, 5, 0, 16, 0, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		mk := func(b []byte) ndarray.Box {
			lo0, w0 := uint64(b[0]%32), uint64(b[1]%16)+1
			lo1, w1 := uint64(b[2]%32), uint64(b[3]%16)+1
			bx, err := ndarray.NewBox([]uint64{lo0, lo1}, []uint64{lo0 + w0, lo1 + w1})
			if err != nil {
				t.Fatalf("NewBox: %v", err)
			}
			return bx
		}
		bs := newBlockSet()
		var boxes []ndarray.Box
		n := len(data)/4 - 1
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			bx := mk(data[i*4:])
			bs.add(ndarray.NewSyntheticBlock(bx))
			boxes = append(boxes, bx)
		}
		query := mk(data[len(data)-4:])
		got, err := bs.query(query)
		if err != nil {
			t.Fatalf("query(%v): %v", query, err)
		}
		var covered uint64
		for _, blk := range got {
			// Every returned sub-block must lie inside the query box.
			for d := range blk.Box.Lo {
				if blk.Box.Lo[d] < query.Lo[d] || blk.Box.Hi[d] > query.Hi[d] {
					t.Fatalf("returned block %v escapes query %v", blk.Box, query)
				}
			}
			covered += blk.Box.NumElems()
		}
		// Brute force: sum of per-box overlaps (duplicates count in both).
		var want uint64
		for _, bx := range boxes {
			if ov, ok := bx.Intersect(query); ok {
				want += ov.NumElems()
			}
		}
		if covered != want {
			t.Fatalf("query covered %d elems, brute force %d (query %v over %d boxes)",
				covered, want, query, len(boxes))
		}
		var order []ndarray.Box
		for _, blk := range bs.blocks {
			if ov, ok := blk.Box.Intersect(query); ok {
				order = append(order, ov)
			}
		}
		if len(got) != len(order) {
			t.Fatalf("query returned %d sub-blocks, linear scan %d (query %v, layout dim %d)",
				len(got), len(order), query, bs.dim)
		}
		for i, blk := range got {
			if !blk.Box.Equal(order[i]) {
				t.Fatalf("sub-block %d is %v, linear scan has %v (query %v, layout dim %d)",
					i, blk.Box, order[i], query, bs.dim)
			}
		}
	})
}
