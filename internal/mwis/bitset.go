package mwis

import "math/bits"

// bitset is a fixed-capacity bit vector over vertex ids or ranks. All sets
// inside one exact-solver instance share the same word length.
type bitset []uint64

func (b bitset) set(i int)   { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// andNot stores a &^ mask into dst (dst may alias a).
func (b bitset) andNotInto(mask, dst bitset) {
	for i := range b {
		dst[i] = b[i] &^ mask[i]
	}
}

// next returns the lowest set bit at or above i, or -1 if there is none.
func (b bitset) next(i int) int {
	wi := i / 64
	if wi >= len(b) {
		return -1
	}
	w := b[wi] >> (uint(i) % 64) << (uint(i) % 64)
	for {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
		wi++
		if wi == len(b) {
			return -1
		}
		w = b[wi]
	}
}

// nextAnd returns the lowest bit set in both b and mask within words wi and
// above, or -1 if there is none.
func (b bitset) nextAnd(mask bitset, wi int) int {
	for ; wi < len(b); wi++ {
		if w := b[wi] & mask[wi]; w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
