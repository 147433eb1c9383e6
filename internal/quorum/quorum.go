// Package quorum implements the quorum arithmetic of §4: the Witness
// property, the minimum fixed quorum size of Theorem 7, the replication
// bound of Corollary 8, and the adversarial quorum-set family used in the
// Theorem 7 lower-bound proof.
package quorum

import (
	"fmt"
	"math/bits"
	"slices"

	"failstop/internal/model"
)

// MinSize returns the minimum fixed quorum size that guarantees the Witness
// property when up to t failures (including erroneous detections) can occur
// among n processes: the smallest integer strictly greater than n(t-1)/t
// (Theorem 7).
//
// MinSize panics if n < 1 or t < 1; t = 1 yields 1 (a single process may
// detect unilaterally, because a failed-before cycle needs at least two
// crashes).
func MinSize(n, t int) int {
	if n < 1 {
		panic(fmt.Sprintf("quorum: n = %d, must be >= 1", n))
	}
	if t < 1 {
		panic(fmt.Sprintf("quorum: t = %d, must be >= 1", t))
	}
	// Smallest integer > n(t-1)/t  ==  floor(n(t-1)/t) + 1.
	return n*(t-1)/t + 1
}

// MaxTolerable returns the largest t such that a one-round protocol using
// minimum-size quorums makes progress with n processes: by Corollary 8 this
// requires n > t², so the answer is ⌈√n⌉ - 1 computed exactly.
func MaxTolerable(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("quorum: n = %d, must be >= 1", n))
	}
	t := 0
	for (t+1)*(t+1) < n {
		t++
	}
	return t
}

// Progresses reports whether a one-round protocol with minimum quorums can
// complete detections when t of the n processes may be down: the quorum
// must be reachable from the n-t processes that remain, i.e.
// n - t >= MinSize(n, t). By Corollary 8 this is equivalent to n > t².
func Progresses(n, t int) bool {
	return n-t >= MinSize(n, t)
}

// Witness reports whether the family of quorum sets satisfies the Witness
// property W: the intersection of all quorum sets is nonempty (§4). The
// family holds, for each detection, the set of processes whose
// acknowledgements the detector collected. The witness returned is the
// smallest common member.
func Witness(quorums []Set) (model.ProcID, bool) {
	if len(quorums) == 0 {
		return model.None, true
	}
	for k, x := range quorums[0].w {
		for _, q := range quorums[1:] {
			if k >= len(q.w) {
				return model.None, false
			}
			x &= q.w[k]
		}
		if x != 0 {
			return model.ProcID(k<<6 + bits.TrailingZeros64(x)), true
		}
	}
	return model.None, false
}

// SubfamiliesIntersect reports whether every subfamily of at most t of the
// given quorum sets has a nonempty intersection. This is the form of the
// Witness property that Theorem 7's quorum size actually guarantees — and
// all that sFS2b needs, because a failed-before cycle involves at most t
// processes (at most t crashes occur), hence at most t quorum sets.
//
// A family may have empty global intersection while every t-subfamily
// intersects; such a family is still safe.
//
// The check runs in two steps. The first is Theorem 7's counting
// argument. Let U be the union of the family. A subfamily S loses a member
// of U only to some quorum's complement U−Q, so |U − ∩S| ≤ Σ_{Q∈S} |U−Q|.
// If the t largest complements sum to fewer than |U|, that sum bounds the
// loss of every S with at most t sets, because a smaller S sums a subset
// of the same complements. So every such ∩S keeps a member, and the
// answer is true after O(m) popcounts. The bound never answers true
// wrongly; a family it cannot settle goes to the second step. That step is
// a depth-first search over the t-subfamilies in index order. It keeps the
// running intersection of each prefix in a preallocated buffer per depth,
// and an empty prefix ends the search with false at once: the prefix
// extends to a t-subfamily (t ≤ m) whose intersection is no larger.
func SubfamiliesIntersect(quorums []Set, t int) bool {
	m := len(quorums)
	if t <= 0 || m <= 1 {
		return true
	}
	if t > m {
		t = m
	}
	words := 0
	for _, q := range quorums {
		words = max(words, len(q.w))
	}
	if countingBound(quorums, t, words) {
		return true
	}
	// bufs[d] holds the intersection of the first d+1 chosen sets; depth 0
	// is the chosen set itself and needs no buffer.
	bufs := make([][]uint64, t)
	for d := 1; d < t; d++ {
		bufs[d] = make([]uint64, words)
	}
	var rec func(d, start int, prefix []uint64) bool
	rec = func(d, start int, prefix []uint64) bool {
		for i := start; i <= m-(t-d); i++ {
			cur, meets := quorums[i].w, false
			if d == 0 {
				meets = count(cur) > 0
			} else {
				cur, meets = and(bufs[d], prefix, cur)
			}
			if !meets {
				return false
			}
			if d+1 < t && !rec(d+1, i+1, cur) {
				return false
			}
		}
		return true
	}
	return rec(0, 0, nil)
}

// countingBound reports whether Theorem 7's counting argument alone proves
// that every subfamily of at most t quorums intersects: the t largest
// complements within the family's union U sum to fewer than |U|. words
// is the longest set's word count.
func countingBound(quorums []Set, t, words int) bool {
	u := 0
	for k := 0; k < words; k++ {
		var x uint64
		for _, q := range quorums {
			if k < len(q.w) {
				x |= q.w[k]
			}
		}
		u += bits.OnesCount64(x)
	}
	comp := make([]int, len(quorums))
	for i, q := range quorums {
		comp[i] = u - q.Len()
	}
	slices.Sort(comp)
	sum := 0
	for _, c := range comp[len(comp)-t:] {
		sum += c
	}
	return sum < u
}

// EmptyIntersectionFamily constructs the Theorem 7 adversarial family: t
// quorum sets over processes 1..n, each of size n - ⌈n/t⌉, such that every
// process is excluded from at least one set and the intersection of the
// family is therefore empty. It returns nil if no such family exists for
// the given sizes (i.e. when the per-set exclusion windows cannot cover all
// n processes).
//
// This is the construction from the proof of Theorem 7:
// Q_1 = P - {1..y}, Q_2 = P - {y+1..2y}, ..., with y = ⌈n/t⌉.
func EmptyIntersectionFamily(n, t int) []Set {
	if n < 1 || t < 1 {
		return nil
	}
	y := (n + t - 1) / t // ⌈n/t⌉, so that t windows of y processes cover 1..n
	if y >= n {
		// Each exclusion window swallows every process: quorums are empty,
		// and the intersection is trivially empty (only meaningful for t=1
		// or tiny n; callers treat it as "no interesting family").
		return nil
	}
	fam := make([]Set, 0, t)
	for i := 0; i < t; i++ {
		lo, hi := i*y+1, (i+1)*y
		if hi > n {
			// The paper's final window is {n-y+1 .. n}: shifted to keep the
			// excluded set at exactly y processes, overlapping its
			// predecessor rather than shrinking.
			lo, hi = n-y+1, n
		}
		var q Set
		for p := 1; p <= n; p++ {
			if p < lo || p > hi {
				q.Add(model.ProcID(p))
			}
		}
		fam = append(fam, q)
	}
	return fam
}
