package quorum

import (
	"sort"

	"failstop/internal/model"
)

// RefSubfamiliesIntersect and RefWitness expose the reference oracle to the
// differential tests in package quorum_test, which need the adversary and
// so cannot live in this package.
var (
	RefSubfamiliesIntersect = func(fam []Set, t int) bool { return refSubfamiliesIntersect(asMaps(fam), t) }
	RefWitness              = func(fam []Set) (model.ProcID, bool) { return refWitness(asMaps(fam)) }
)

// asMaps converts a family of Sets into the map form the oracle reads.
func asMaps(fam []Set) []map[model.ProcID]bool {
	out := make([]map[model.ProcID]bool, len(fam))
	for i, s := range fam {
		m := make(map[model.ProcID]bool)
		for p := model.ProcID(0); int(p) < len(s.w)*64; p++ {
			if s.Has(p) {
				m[p] = true
			}
		}
		out[i] = m
	}
	return out
}

// refWitness is the map-based Witness that Set replaced: intersect every
// set against the first, candidates in ascending order.
func refWitness(quorums []map[model.ProcID]bool) (model.ProcID, bool) {
	if len(quorums) == 0 {
		return model.None, true
	}
	cands := make([]model.ProcID, 0, len(quorums[0]))
	for w := range quorums[0] {
		cands = append(cands, w)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, w := range cands {
		inAll := true
		for _, q := range quorums[1:] {
			if !q[w] {
				inAll = false
				break
			}
		}
		if inAll {
			return w, true
		}
	}
	return model.None, false
}

// refSubfamiliesIntersect is the map-and-enumerate SubfamiliesIntersect
// that the counting bound and the pruned search replaced: it runs
// refWitness on every one of the C(m,t) subfamilies.
func refSubfamiliesIntersect(quorums []map[model.ProcID]bool, t int) bool {
	if t <= 0 || len(quorums) <= 1 {
		return true
	}
	if t > len(quorums) {
		t = len(quorums)
	}
	idx := make([]int, t)
	var rec func(pos, start int) bool
	rec = func(pos, start int) bool {
		if pos == t {
			sub := make([]map[model.ProcID]bool, t)
			for i, q := range idx {
				sub[i] = quorums[q]
			}
			_, okW := refWitness(sub)
			return okW
		}
		for i := start; i <= len(quorums)-(t-pos); i++ {
			idx[pos] = i
			if !rec(pos+1, i+1) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}
