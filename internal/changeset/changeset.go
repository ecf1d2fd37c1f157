// Package changeset provides a reusable bitset over a fixed index universe
// [0, n), used to report *which* elements of a vector changed between two
// fills. Policies record the indices their WriteIndices call moved and the
// slot kernel passes the set to its decision plane, which ignores it: the
// decider compares the weights itself. The package stays while the
// benchmark module, stackbench, compiles against that signature.
//
// A Set is plain mutable state with no locking; confine it to one goroutine
// like the buffers it describes. Reset reuses the backing storage, so a Set
// held across decision boundaries performs no steady-state allocations.
package changeset

import "math/bits"

// Set is a bitset of changed indices over the universe [0, Len()).
type Set struct {
	words []uint64
	n     int
}

// New returns a Set over the universe [0, n).
func New(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// Reset clears the set and resizes its universe to [0, n), reusing the
// backing storage when capacity allows.
func (s *Set) Reset(n int) {
	if n < 0 {
		n = 0
	}
	words := (n + 63) / 64
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add marks index i as changed. Out-of-universe indices panic like a slice
// write would — the universe is fixed at Reset.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("changeset: index out of range")
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Contains reports whether index i is marked.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Empty reports whether no index is marked.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of marked indices.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls fn for every marked index in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
