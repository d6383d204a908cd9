package ndarray

import (
	"slices"
	"sort"
)

// BoxIndex finds which boxes of a list overlap a query box without
// testing every one of them. The boxes stay with the caller: Build and
// Query read them through an accessor, and the caller calls Build again
// after the list changes (the index keeps no dirty flag of its own).
//
// Per dimension d the index holds the box indices ordered by Lo[d], with
// those Lo[d] values alongside, and the widest extent along d. A box can
// reach into a query along d only if it starts below the query's upper
// bound and no more than that widest extent below the query's lower
// bound, so a query bisects every dimension for that window, scans the
// narrowest one and filters it with Overlaps. Hits come back in ascending
// index order: the same subset in the same order as a linear Overlaps
// scan over the list.
type BoxIndex struct {
	n int
	// byLo[d] holds the indices of the boxes of rank > d, ordered by
	// Lo[d], and lo[d] their Lo[d] values in the same order: bisection
	// reads one contiguous array instead of calling the accessor and
	// chasing each box's Lo slice. maxW[d] is the widest extent along d
	// among those boxes.
	byLo [][]int32
	lo   [][]uint64
	maxW []uint64
}

// Build indexes boxes 0..n-1, reading them through box. Boxes may differ
// in rank; slices from an earlier Build are reused.
func (x *BoxIndex) Build(n int, box func(i int) Box) {
	rank := 0
	for i := 0; i < n; i++ {
		rank = max(rank, box(i).Rank())
	}
	x.n = n
	for len(x.byLo) < rank {
		x.byLo = append(x.byLo, nil)
		x.lo = append(x.lo, nil)
		x.maxW = append(x.maxW, 0)
	}
	x.byLo, x.lo, x.maxW = x.byLo[:rank], x.lo[:rank], x.maxW[:rank]
	for d := 0; d < rank; d++ {
		idx, lo := x.byLo[d][:0], x.lo[d][:0]
		var w uint64
		for i := 0; i < n; i++ {
			b := box(i)
			if b.Rank() > d {
				idx = append(idx, int32(i))
				lo = append(lo, b.Lo[d])
				w = max(w, b.Hi[d]-b.Lo[d])
			}
		}
		// Ties may land in any order: a window is a range of Lo
		// values, and Query sorts its hits by index.
		sort.Sort(byLo{idx, lo})
		x.byLo[d], x.lo[d], x.maxW[d] = idx, lo, w
	}
}

// byLo sorts box indices and their lower bounds in tandem.
type byLo struct {
	idx []int32
	lo  []uint64
}

func (s byLo) Len() int           { return len(s.idx) }
func (s byLo) Less(a, b int) bool { return s.lo[a] < s.lo[b] }
func (s byLo) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.lo[a], s.lo[b] = s.lo[b], s.lo[a]
}

// Query appends to dst the indices of the indexed boxes that overlap q,
// in ascending order, reading boxes through the accessor Build was given.
func (x *BoxIndex) Query(q Box, box func(i int) Box, dst []int) []int {
	if q.Rank() > len(x.byLo) {
		return dst // no indexed box has q's rank
	}
	start := len(dst)
	if q.Rank() == 0 {
		// Nothing to bisect: every rank-0 box overlaps a rank-0 query.
		for i := 0; i < x.n; i++ {
			if box(i).Overlaps(q) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	var cand []int32
	for d := range q.Lo {
		keys := x.lo[d]
		minLo := uint64(0)
		if q.Lo[d] > x.maxW[d] {
			minLo = q.Lo[d] - x.maxW[d]
		}
		lo, _ := slices.BinarySearch(keys, minLo)
		size, _ := slices.BinarySearch(keys[lo:], q.Hi[d])
		if d == 0 || size < len(cand) {
			cand = x.byLo[d][lo : lo+size]
		}
	}
	for _, i := range cand {
		if box(int(i)).Overlaps(q) {
			dst = append(dst, int(i))
		}
	}
	slices.Sort(dst[start:])
	return dst
}
