package quorum

import (
	"math/bits"
	"strconv"
	"strings"

	"failstop/internal/model"
)

// Set is a dense set of processes: bit p of word p/64 is set iff process p
// is a member. Its words run up to its largest member, so a quorum over
// processes 1..n costs ⌈(n+1)/64⌉ words however many members it has, and
// intersecting or counting two sets is a word-wise AND or popcount — the
// set algebra of the Witness property (§4). The zero Set is empty and
// ready to use.
type Set struct {
	w []uint64
}

// SetOf returns the set of the given processes.
func SetOf(ps ...model.ProcID) Set {
	var s Set
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Add inserts p. p must not be negative. A set grows to exactly p's word
// and no further: quorum sets are built once from a handful of members,
// so spare capacity would cost more memory than the occasional copy.
func (s *Set) Add(p model.ProcID) {
	k := int(p) >> 6
	if k >= len(s.w) {
		w := make([]uint64, k+1)
		copy(w, s.w)
		s.w = w
	}
	s.w[k] |= 1 << (uint(p) & 63)
}

// Has reports whether p is a member.
func (s Set) Has(p model.ProcID) bool {
	k := int(p) >> 6
	return p >= 0 && k < len(s.w) && s.w[k]&(1<<(uint(p)&63)) != 0
}

// Len returns the number of members.
func (s Set) Len() int { return count(s.w) }

// Clone returns a copy of s that shares no storage with it.
func (s Set) Clone() Set {
	return Set{w: append([]uint64(nil), s.w...)}
}

// String renders the members in ascending order, as "{2 3 4}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for k, x := range s.w {
		for x != 0 {
			if b.Len() > 1 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(k<<6 + bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	b.WriteByte('}')
	return b.String()
}

// count returns the number of set bits in w.
func count(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// and writes a ∧ b into dst, which needs room for the shorter of the two,
// and reports whether the intersection is nonempty.
func and(dst, a, b []uint64) ([]uint64, bool) {
	dst = dst[:min(len(a), len(b))]
	var or uint64
	for k := range dst {
		dst[k] = a[k] & b[k]
		or |= dst[k]
	}
	return dst, or != 0
}
